package js

import "fmt"

// This file lowers the AST to the flat bytecode the VM (vm.go) executes.
//
// Design constraints, in priority order:
//
//  1. Metering parity. The tree-walking interpreter charges one op at the
//     entry of every exec(stmt) and eval(expr) (interp.go step()), plus one
//     per loop iteration after the body. Simulated energy and latency are a
//     pure function of the op count, so every compiled instruction sequence
//     must charge the exact ops the corresponding AST walk did, in the same
//     order, with the same positions on the op-limit error. Composite nodes
//     emit an explicit opStep before their children; leaf nodes fold the
//     charge into their single instruction (the Charge flag).
//  2. Behavioural parity. Evaluation order, error messages, scope creation,
//     and function-declaration hoisting replicate interp.go exactly; shared
//     helpers (getProp, arith, storeProp, invoke, catchable) are reused
//     verbatim so the two engines cannot drift.
//  3. Speed. Expressions compile to a flat stack machine; statements
//     compile into per-block segments so control flow (break through nested
//     blocks, finally overriding returns) propagates exactly like the
//     interpreter's ctrl returns without a decompilation of JS semantics
//     into raw jumps.
//
// Rarely-hot structured constructs (try, switch, for-in) compile to single
// instructions holding a plan of sub-segments, executed by Go code that
// mirrors the interpreter's — minimal parity risk where flatness buys
// nothing.

// OpCode enumerates VM instructions.
type OpCode uint8

// Opcode set. A/B are operand slots whose meaning is per-opcode (constant
// pool index, name index, jump target, child segment index, argc).
const (
	opStep        OpCode = iota // charge only (composite node entry)
	opConst                     // push consts[A]
	opThis                      // push lookup("this") or undefined
	opLoad                      // push variable names[A]; error when undefined
	opTypeofName                // push typeof names[A] ("undefined" when unbound)
	opClosure                   // push a closure over fns[A]
	opPop                       // drop top
	opDup                       // duplicate top
	opSwap                      // swap top two
	opJmp                       // pc = A
	opJF                        // pop; if falsy pc = A
	opJFK                       // peek; if falsy pc = A (keep) else pop
	opJTK                       // peek; if truthy pc = A (keep) else pop
	opBinop                     // pop r, l; push binary op names[A] (full relational/equality/arith)
	opArith                     // pop r, l; push arithmetic op names[A] (compound assignment)
	opNeg                       // pop; push -ToNumber
	opPlus                      // pop; push +ToNumber
	opNot                       // pop; push !Truthy
	opBitNot                    // pop; push ^ToInt32
	opTypeof                    // pop; push typeof string
	opIncDec                    // pop old; push Num(old.Number()+A) (A = ±1)
	opPostfix                   // pop old; push Num(old.Number()), Num(old.Number()+A)
	opGetProp                   // pop recv; push recv.names[A]
	opGetIndex                  // pop idx, recv; push recv[idx]
	opStoreName                 // peek v; assign names[A] = v
	opStoreProp                 // pop recv; peek v; recv.names[A] = v
	opStoreIndex                // pop idx, recv; peek v; recv[idx] = v
	opDelProp                   // pop recv; delete recv.names[A]; push true
	opDelIndex                  // pop idx, recv; delete recv[idx]; push true
	opDefine                    // pop v; define names[A] = v in current scope
	opMakeArray                 // pop A elems; push array
	opMakeObj                   // pop len(keysets[A]) values; push object
	opCheckCall                 // peek fn; error "names[A] is not a function" unless callable
	opCall                      // pop A args, fn, this; push invoke result
	opCheckCtor                 // peek fn; error "not a constructor" unless callable
	opNew                       // pop A args, fn; push constructed object
	opRet                       // pop v; return (v, ctrlReturn)
	opBreak                     // return ctrlBreak
	opContinue                  // return ctrlContinue
	opThrow                     // pop v; raise "uncaught: v"
	opRunBlock                  // run segs[A] in a fresh child scope; propagate ctrl
	opRunLoopBody               // run segs[A]; break → pc = B, continue → fall through, return → propagate
	opPushScope                 // enter a fresh child scope (for-loop header)
	opPopScope                  // leave it
	opForIn                     // pop x; run forins[A] (mirrors interp for-in)
	opSwitch                    // pop tag; run switches[A] (mirrors execSwitch)
	opTry                       // run tries[A] (mirrors execTry)
	opFail                      // raise names[A] (unreachable-construct diagnostics)

	// Fused instructions: exact sequential equivalents of two-instruction
	// patterns, merged at emit time to cut dispatch and stack traffic.
	opArithRev     // pop l, r (reverse order); push l op r — replaces opSwap+opArith
	opStoreNamePop // pop v; assign names[A] = v — replaces opStoreName+opPop

	// Slot-resolved variable access: A = frames to hop outward, B = slot in
	// that frame. Emitted only where the compiler proves the frame layout
	// at this site (see frameModel); everything else stays name-based.
	opLoadSlot     // push env^A.vals[B]
	opStoreSlot    // peek v; env^A.vals[B] = v
	opStoreSlotPop // pop v; env^A.vals[B] = v
)

// Instr is one VM instruction. Line/Col anchor runtime errors (op-limit
// trips, property faults) to the originating node; Charge marks the
// instructions that account for one interpreter op.
type Instr struct {
	Op        OpCode
	A, B      int32
	Line, Col int32
	Charge    bool
}

// Pos lets *Instr stand in as a Node for the shared error helpers (rtErr,
// invoke) without an interface-boxing allocation on hot paths.
func (is *Instr) Pos() (int, int) { return int(is.Line), int(is.Col) }

// Operator codes, resolved at compile time so the VM dispatches binary
// operators on an integer instead of re-comparing strings per execution.
// The arith* block mirrors arith()'s case order.
const (
	arithAdd int32 = iota + 1
	arithSub
	arithMul
	arithDiv
	arithMod
	arithBand
	arithBor
	arithBxor
	arithShl
	arithShr
	cmpStrictEq
	cmpStrictNe
	cmpLooseEq
	cmpLooseNe
	cmpLt
	cmpGt
	cmpLe
	cmpGe
)

var opCodes = map[string]int32{
	"+": arithAdd, "-": arithSub, "*": arithMul, "/": arithDiv, "%": arithMod,
	"&": arithBand, "|": arithBor, "^": arithBxor, "<<": arithShl, ">>": arithShr,
	"===": cmpStrictEq, "!==": cmpStrictNe, "==": cmpLooseEq, "!=": cmpLooseNe,
	"<": cmpLt, ">": cmpGt, "<=": cmpLe, ">=": cmpGe,
}

// segment is a compiled statement list: the body of a program, function,
// block, loop, or clause. Function declarations hoist at every entry,
// exactly like execBlock.
type segment struct {
	code   []Instr
	hoists []hoistFn

	// scopeless marks segments that never define a binding at their own
	// level (no var declarations, no hoisted functions). Running such a
	// segment in the enclosing scope instead of a fresh child frame is
	// observationally identical — an empty frame only adds lookup hops —
	// so the VM elides the per-entry Env allocation (big for loop bodies).
	scopeless bool

	// locals sizes the frame childScope allocates (top-level define count);
	// zero when scopeless.
	locals int32
}

type hoistFn struct {
	name string
	fn   *compiledFn
}

// compiledFn is the compiled form of a function literal or declaration.
// srcBody keeps the AST so function values remain tree-walkable (Function
// carries both; Code wins at invoke time).
type compiledFn struct {
	name     string
	params   []string
	body     *segment
	u        *unit
	srcBody  []Stmt
	needArgs bool // body mentions "arguments" — skip the array otherwise
	locals   int  // invoke-frame size hint: params + arguments + this + defines
}

// forinPlan backs opForIn.
type forinPlan struct {
	name      string
	body      *segment
	line, col int32
}

// switchClause is one laid-out clause; caseIdx is -1 for default.
type switchClause struct {
	body    *segment
	caseIdx int
}

// switchPlan backs opSwitch: case values as mini expression segments,
// clauses in source order with the default interleaved (see execSwitch).
type switchPlan struct {
	caseVals []*segment
	clauses  []switchClause
}

// tryPlan backs opTry.
type tryPlan struct {
	body      *segment
	catchName string
	catch     *segment // nil = no catch clause
	finally   *segment // nil = no finally clause
}

// unit holds the pools every segment of one compiled program shares.
type unit struct {
	consts   []Value
	names    []string
	fns      []*compiledFn
	segs     []*segment
	keysets  [][]string
	forins   []*forinPlan
	switches []*switchPlan
	tries    []*tryPlan
}

// CompiledProgram is a program lowered to bytecode. It is immutable after
// Compile and safe to share across goroutines and interpreter instances —
// the asset cache stores one per cached script.
type CompiledProgram struct {
	u    *unit
	main *segment
}

// Compile lowers a parsed program to bytecode. It never fails: constructs
// the compiler cannot handle (none today) become opFail instructions that
// reproduce the interpreter's "unhandled …" runtime errors.
func Compile(prog *Program) *CompiledProgram {
	c := &compiler{u: &unit{}, nameIdx: map[string]int32{}}
	c.pushFrame(envSmallMax + 1) // globals: promoted map, never slot-addressed
	main := c.block(prog.Body)
	return &CompiledProgram{u: c.u, main: main}
}

type compiler struct {
	u       *unit
	nameIdx map[string]int32
	scopes  []*frameModel
}

// frameModel is the compiler's static picture of one runtime Env frame.
// Within a segment, defines execute strictly in source order until an
// abrupt exit abandons the frame, so a frame's layout at any instruction is
// a pure function of the site — which makes slot addresses sound wherever
// the model says so. Frames whose layout the compiler cannot pin (globals,
// frames that outgrow the small-slice storage and promote to a map, switch
// clause scopes whose defines depend on the matched case) are marked
// non-addressable: names found there fall back to dynamic lookup.
type frameModel struct {
	slots       map[string]int32
	next        int32
	addressable bool
}

// pushFrame models entering a runtime scope that will hold at most
// capacity bindings. Past envSmallMax the Env would promote to a map,
// invalidating slot addressing, so such frames are never addressable.
func (c *compiler) pushFrame(capacity int) *frameModel {
	f := &frameModel{slots: map[string]int32{}, addressable: capacity <= envSmallMax}
	c.scopes = append(c.scopes, f)
	return f
}

func (c *compiler) popFrame() { c.scopes = c.scopes[:len(c.scopes)-1] }

// defineName records a binding in the innermost modeled frame, mirroring a
// runtime Define at the same point (duplicates reuse their slot, exactly
// like Define's overwrite path).
func (c *compiler) defineName(name string) {
	f := c.scopes[len(c.scopes)-1]
	if _, ok := f.slots[name]; ok {
		return
	}
	f.slots[name] = f.next
	f.next++
}

// resolve finds a statically known (hops, slot) address for name, walking
// outward from the innermost frame. A hit in a non-addressable frame — or
// falling off the end (stdlib globals, implicit globals) — means dynamic.
func (c *compiler) resolve(name string) (hops, slot int32, ok bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		f := c.scopes[i]
		if s, in := f.slots[name]; in {
			if f.addressable {
				return hops, s, true
			}
			return 0, 0, false
		}
		hops++
	}
	return 0, 0, false
}

// hasTopLevelDecls reports whether running body needs its own scope frame
// (it defines bindings at its own level). Must stay in lockstep with the
// opDefine emissions in stmt() — childScope elision depends on it.
func hasTopLevelDecls(body []Stmt) bool {
	for _, s := range body {
		switch s.(type) {
		case *VarDecl, *VarDeclGroup, *FuncDecl:
			return true
		}
	}
	return false
}

// topLevelDefineCount bounds how many bindings body adds to its frame.
func topLevelDefineCount(body []Stmt) int {
	n := 0
	for _, s := range body {
		switch st := s.(type) {
		case *VarDecl, *FuncDecl:
			n++
		case *VarDeclGroup:
			n += len(st.Decls)
		}
	}
	return n
}

// ---- pool interning ----

func (c *compiler) constIdx(v Value) int32 {
	c.u.consts = append(c.u.consts, v)
	return int32(len(c.u.consts) - 1)
}

func (c *compiler) name(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	c.u.names = append(c.u.names, s)
	i := int32(len(c.u.names) - 1)
	c.nameIdx[s] = i
	return i
}

func (c *compiler) seg(sg *segment) int32 {
	c.u.segs = append(c.u.segs, sg)
	return int32(len(c.u.segs) - 1)
}

// ---- emission ----

func at(n Node) (int32, int32) {
	line, col := n.Pos()
	return int32(line), int32(col)
}

func (sg *segment) emit(is Instr) int {
	sg.code = append(sg.code, is)
	return len(sg.code) - 1
}

// emitAt appends an uncharged instruction anchored at n.
func (sg *segment) emitAt(op OpCode, a, b int32, n Node) int {
	line, col := at(n)
	return sg.emit(Instr{Op: op, A: a, B: b, Line: line, Col: col})
}

// emitCharged appends a charged instruction anchored at n (one interpreter
// op: a step() call in the tree walker).
func (sg *segment) emitCharged(op OpCode, a, b int32, n Node) int {
	line, col := at(n)
	return sg.emit(Instr{Op: op, A: a, B: b, Line: line, Col: col, Charge: true})
}

// patch sets the jump target of the instruction at idx to the current end.
func (sg *segment) patch(idx int) { sg.code[idx].A = int32(len(sg.code)) }

// emitPop drops the top of stack. When the value was just stored by an
// opStoreName, the two fuse into opStoreNamePop — safe because the fused
// instruction keeps the store's index, so any jump that targeted the store
// still executes the identical store-then-drop sequence.
func (sg *segment) emitPop(n Node) {
	if len(sg.code) > 0 {
		switch sg.code[len(sg.code)-1].Op {
		case opStoreName:
			sg.code[len(sg.code)-1].Op = opStoreNamePop
			return
		case opStoreSlot:
			sg.code[len(sg.code)-1].Op = opStoreSlotPop
			return
		}
	}
	sg.emitAt(opPop, 0, 0, n)
}

func (sg *segment) here() int32 { return int32(len(sg.code)) }

// ---- statements ----

// block compiles a statement list into a fresh segment, registering its
// hoisted function declarations (performed by the VM at every entry, as
// execBlock does). The hoist names are modeled before the hoisted bodies
// compile — they exist at frame entry, so siblings may slot-address each
// other — but later var defines are not, because a hoisted function can run
// before the frame reaches them.
func (c *compiler) block(body []Stmt) *segment {
	sg := &segment{scopeless: !hasTopLevelDecls(body)}
	for _, s := range body {
		if fd, ok := s.(*FuncDecl); ok {
			c.defineName(fd.Name)
		}
	}
	for _, s := range body {
		if fd, ok := s.(*FuncDecl); ok {
			sg.hoists = append(sg.hoists, hoistFn{name: fd.Name, fn: c.fn(fd.Fn, fd.Name)})
		}
	}
	for _, s := range body {
		c.stmt(sg, s)
	}
	return sg
}

// subBlock compiles a body that the VM runs via childScope: it gets its own
// frame model exactly when the VM will allocate one.
func (c *compiler) subBlock(body []Stmt) *segment {
	needs := hasTopLevelDecls(body)
	count := 0
	if needs {
		count = topLevelDefineCount(body)
		c.pushFrame(count)
	}
	sg := c.block(body)
	sg.locals = int32(count)
	if needs {
		c.popFrame()
	}
	return sg
}

// fn compiles a function literal. The declaration name (FuncDecl) takes
// precedence over the literal's own for diagnostics, matching execBlock.
// The invoke frame is modeled in definition order: params, arguments (when
// kept), this, then the body's hoists and vars. A named function expression
// additionally closes over a one-binding self scope (opClosure).
func (c *compiler) fn(lit *FuncLit, declName string) *compiledFn {
	name := lit.Name
	if declName != "" {
		name = declName
	}
	needArgs := mentionsArguments(lit.Body)
	selfScope := declName == "" && lit.Name != ""
	if selfScope {
		c.pushFrame(1)
		c.defineName(lit.Name)
	}
	capacity := len(lit.Params) + 2 + topLevelDefineCount(lit.Body) // +arguments +this
	c.pushFrame(capacity)
	for _, p := range lit.Params {
		c.defineName(p)
	}
	if needArgs {
		c.defineName("arguments")
	}
	c.defineName("this")
	cf := &compiledFn{
		name:     name,
		params:   lit.Params,
		body:     c.block(lit.Body),
		u:        c.u,
		srcBody:  lit.Body,
		needArgs: needArgs,
		locals:   capacity,
	}
	c.popFrame()
	if selfScope {
		c.popFrame()
	}
	return cf
}

func (c *compiler) stmt(sg *segment, s Stmt) {
	// exec() charges one op at entry of every statement.
	sg.emitCharged(opStep, 0, 0, s)
	switch st := s.(type) {
	case *VarDecl:
		c.varDeclTail(sg, st)

	case *VarDeclGroup:
		// exec charges the group, then execs each decl (charged again).
		for _, d := range st.Decls {
			sg.emitCharged(opStep, 0, 0, d)
			c.varDeclTail(sg, d)
		}

	case *FuncDecl:
		// Hoisted at block entry; the execution position only charges.

	case *ExprStmt:
		c.expr(sg, st.X)
		sg.emitPop(st)

	case *IfStmt:
		c.expr(sg, st.Cond)
		jf := sg.emitAt(opJF, 0, 0, st)
		sg.emitAt(opRunBlock, c.seg(c.subBlock(st.Then)), 0, st)
		if st.Else != nil {
			jend := sg.emitAt(opJmp, 0, 0, st)
			sg.patch(jf)
			sg.emitAt(opRunBlock, c.seg(c.subBlock(st.Else)), 0, st)
			sg.patch(jend)
		} else {
			sg.patch(jf)
		}

	case *WhileStmt:
		top := sg.here()
		c.expr(sg, st.Cond)
		jf := sg.emitAt(opJF, 0, 0, st)
		body := sg.emitAt(opRunLoopBody, c.seg(c.subBlock(st.Body)), 0, st)
		sg.emitCharged(opStep, 0, 0, st) // per-iteration charge (after body)
		sg.emitAt(opJmp, top, 0, st)
		sg.patch(jf)
		sg.code[body].B = sg.here() // break target

	case *DoWhileStmt:
		top := sg.here()
		body := sg.emitAt(opRunLoopBody, c.seg(c.subBlock(st.Body)), 0, st)
		c.expr(sg, st.Cond)
		jf := sg.emitAt(opJF, 0, 0, st)
		sg.emitCharged(opStep, 0, 0, st)
		sg.emitAt(opJmp, top, 0, st)
		sg.patch(jf)
		sg.code[body].B = sg.here()

	case *ForStmt:
		// The loop header owns a scope (init vars live across iterations);
		// each body run gets a child scope via opRunLoopBody.
		initCount := 0
		if st.Init != nil {
			initCount = topLevelDefineCount([]Stmt{st.Init})
		}
		sg.emitAt(opPushScope, int32(initCount), 0, st)
		c.pushFrame(initCount)
		if st.Init != nil {
			c.stmt(sg, st.Init)
		}
		top := sg.here()
		jf := -1
		if st.Cond != nil {
			c.expr(sg, st.Cond)
			jf = sg.emitAt(opJF, 0, 0, st)
		}
		body := sg.emitAt(opRunLoopBody, c.seg(c.subBlock(st.Body)), 0, st)
		if st.Post != nil {
			c.expr(sg, st.Post)
			sg.emitPop(st)
		}
		sg.emitCharged(opStep, 0, 0, st)
		sg.emitAt(opJmp, top, 0, st)
		if jf >= 0 {
			sg.patch(jf)
		}
		sg.code[body].B = sg.here()
		sg.emitAt(opPopScope, 0, 0, st)
		c.popFrame()

	case *ReturnStmt:
		if st.X != nil {
			c.expr(sg, st.X)
		} else {
			sg.emitAt(opConst, c.constIdx(Undefined), 0, st)
		}
		sg.emitAt(opRet, 0, 0, st)

	case *BreakStmt:
		sg.emitAt(opBreak, 0, 0, st)

	case *ContinueStmt:
		sg.emitAt(opContinue, 0, 0, st)

	case *ThrowStmt:
		c.expr(sg, st.X)
		sg.emitAt(opThrow, 0, 0, st)

	case *BlockStmt:
		sg.emitAt(opRunBlock, c.seg(c.subBlock(st.Body)), 0, st)

	case *SwitchStmt:
		c.expr(sg, st.Tag)
		// All clause bodies share one runtime scope; which clauses run (and
		// therefore which defines execute) depends on the matched case, so
		// the frame is modeled non-addressable with every possible name.
		c.pushFrame(envSmallMax + 1)
		seed := func(body []Stmt) {
			for _, s := range body {
				switch d := s.(type) {
				case *VarDecl:
					c.defineName(d.Name)
				case *VarDeclGroup:
					for _, dd := range d.Decls {
						c.defineName(dd.Name)
					}
				case *FuncDecl:
					c.defineName(d.Name)
				}
			}
		}
		for _, cs := range st.Cases {
			seed(cs.Body)
		}
		seed(st.Default)
		plan := &switchPlan{}
		for _, cs := range st.Cases {
			vs := &segment{}
			c.expr(vs, cs.Value)
			vs.emitAt(opRet, 0, 0, cs.Value)
			plan.caseVals = append(plan.caseVals, vs)
		}
		for pos := 0; pos <= len(st.Cases); pos++ {
			if st.Default != nil && st.DefaultAt == pos {
				plan.clauses = append(plan.clauses, switchClause{body: c.block(st.Default), caseIdx: -1})
			}
			if pos < len(st.Cases) {
				plan.clauses = append(plan.clauses, switchClause{body: c.block(st.Cases[pos].Body), caseIdx: pos})
			}
		}
		c.popFrame()
		c.u.switches = append(c.u.switches, plan)
		sg.emitAt(opSwitch, int32(len(c.u.switches)-1), 0, st)

	case *ForInStmt:
		c.expr(sg, st.X) // evaluated in the enclosing scope, before the loop var exists
		c.pushFrame(1)
		c.defineName(st.Name)
		line, col := at(st)
		c.u.forins = append(c.u.forins, &forinPlan{
			name: st.Name, body: c.subBlock(st.Body), line: line, col: col,
		})
		c.popFrame()
		sg.emitAt(opForIn, int32(len(c.u.forins)-1), 0, st)

	case *TryStmt:
		plan := &tryPlan{body: c.subBlock(st.Body), catchName: st.CatchName}
		if st.Catch != nil {
			// vmTry allocates the catch scope when there is a binding or the
			// block defines; the model must match frame-for-frame.
			needs := st.CatchName != "" || hasTopLevelDecls(st.Catch)
			if needs {
				c.pushFrame(1 + topLevelDefineCount(st.Catch))
				if st.CatchName != "" {
					c.defineName(st.CatchName)
				}
			}
			plan.catch = c.block(st.Catch)
			if needs {
				c.popFrame()
			}
		}
		if st.Finally != nil {
			plan.finally = c.subBlock(st.Finally)
		}
		c.u.tries = append(c.u.tries, plan)
		sg.emitAt(opTry, int32(len(c.u.tries)-1), 0, st)

	default:
		sg.emitAt(opFail, c.name(fmt.Sprintf("unhandled statement %T", s)), 0, s)
	}
}

// varDeclTail compiles a VarDecl's body (the step for the statement itself
// has already been emitted).
func (c *compiler) varDeclTail(sg *segment, st *VarDecl) {
	if st.Init != nil {
		c.expr(sg, st.Init)
	} else {
		sg.emitAt(opConst, c.constIdx(Undefined), 0, st)
	}
	sg.emitAt(opDefine, c.name(st.Name), 0, st)
	c.defineName(st.Name) // modeled after the init: `var x = x` reads outward
}

// ---- expressions ----

func (c *compiler) expr(sg *segment, e Expr) {
	switch x := e.(type) {
	case *NumberLit:
		sg.emitCharged(opConst, c.constIdx(Num(x.Value)), 0, x)
	case *StringLit:
		sg.emitCharged(opConst, c.constIdx(Str(x.Value)), 0, x)
	case *BoolLit:
		sg.emitCharged(opConst, c.constIdx(Boolean(x.Value)), 0, x)
	case *NullLit:
		sg.emitCharged(opConst, c.constIdx(Null), 0, x)
	case *UndefinedLit:
		sg.emitCharged(opConst, c.constIdx(Undefined), 0, x)
	case *ThisLit:
		if hops, slot, ok := c.resolve("this"); ok {
			sg.emitCharged(opLoadSlot, hops, slot, x)
		} else {
			sg.emitCharged(opThis, 0, 0, x)
		}
	case *Ident:
		if hops, slot, ok := c.resolve(x.Name); ok {
			sg.emitCharged(opLoadSlot, hops, slot, x)
		} else {
			sg.emitCharged(opLoad, c.name(x.Name), 0, x)
		}

	case *ArrayLit:
		sg.emitCharged(opStep, 0, 0, x)
		for _, el := range x.Elems {
			c.expr(sg, el)
		}
		sg.emitAt(opMakeArray, int32(len(x.Elems)), 0, x)

	case *ObjectLit:
		sg.emitCharged(opStep, 0, 0, x)
		for _, v := range x.Values {
			c.expr(sg, v)
		}
		c.u.keysets = append(c.u.keysets, x.Keys)
		sg.emitAt(opMakeObj, int32(len(c.u.keysets)-1), 0, x)

	case *FuncLit:
		c.u.fns = append(c.u.fns, c.fn(x, ""))
		sg.emitCharged(opClosure, int32(len(c.u.fns)-1), 0, x)

	case *Unary:
		c.unary(sg, x)

	case *Postfix:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		delta := int32(1)
		if x.Op == "--" {
			delta = -1
		}
		sg.emitAt(opPostfix, delta, 0, x)
		c.store(sg, x.X)
		sg.emitPop(x) // drop the stored new value; old remains

	case *Binary:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.L)
		c.expr(sg, x.R)
		sg.emitAt(opBinop, c.name(x.Op), opCodes[x.Op], x)

	case *Logical:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.L)
		var jk int
		if x.Op == "&&" {
			jk = sg.emitAt(opJFK, 0, 0, x)
		} else {
			jk = sg.emitAt(opJTK, 0, 0, x)
		}
		c.expr(sg, x.R)
		sg.patch(jk)

	case *Cond:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.Test)
		jf := sg.emitAt(opJF, 0, 0, x)
		c.expr(sg, x.Then)
		jend := sg.emitAt(opJmp, 0, 0, x)
		sg.patch(jf)
		c.expr(sg, x.Else)
		sg.patch(jend)

	case *Assign:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.Value)
		if x.Op != "=" {
			// Compound assignment re-evaluates the target as an rvalue
			// (charges and side effects included), then applies the
			// arithmetic operator — mirroring eval's Assign case, where the
			// receiver is evaluated again by assignTo below.
			c.expr(sg, x.Target)
			sg.emitAt(opArithRev, c.name(x.Op[:1]), opCodes[x.Op[:1]], x)
		}
		c.store(sg, x.Target)

	case *Member:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opGetProp, c.name(x.Name), 0, x)

	case *Index:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		c.expr(sg, x.I)
		sg.emitAt(opGetIndex, 0, 0, x)

	case *Call:
		sg.emitCharged(opStep, 0, 0, x)
		switch f := x.Fn.(type) {
		case *Member:
			// evalCall evaluates the receiver and reads the method without
			// charging for the Member node itself.
			c.expr(sg, f.X)
			sg.emitAt(opDup, 0, 0, f)
			sg.emitAt(opGetProp, c.name(f.Name), 0, f)
		case *Index:
			c.expr(sg, f.X)
			sg.emitAt(opDup, 0, 0, f)
			c.expr(sg, f.I)
			sg.emitAt(opGetIndex, 0, 0, f)
		default:
			sg.emitAt(opConst, c.constIdx(Undefined), 0, x) // this
			c.expr(sg, x.Fn)
		}
		// The callee is validated before the arguments are evaluated,
		// exactly as evalCall does.
		sg.emitAt(opCheckCall, c.name(describeCallee(x.Fn)), 0, x)
		for _, a := range x.Args {
			c.expr(sg, a)
		}
		sg.emitAt(opCall, int32(len(x.Args)), 0, x)

	case *New:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.Fn)
		sg.emitAt(opCheckCtor, 0, 0, x)
		for _, a := range x.Args {
			c.expr(sg, a)
		}
		sg.emitAt(opNew, int32(len(x.Args)), 0, x)

	default:
		sg.emitAt(opFail, c.name(fmt.Sprintf("unhandled expression %T", e)), 0, e)
	}
}

func (c *compiler) unary(sg *segment, x *Unary) {
	switch x.Op {
	case "typeof":
		if id, ok := x.X.(*Ident); ok {
			// typeof ident reads the environment directly — no charge for
			// the operand (evalUnary's undefined-variable tolerance).
			sg.emitCharged(opTypeofName, c.name(id.Name), 0, x)
			return
		}
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opTypeof, 0, 0, x)
	case "++", "--":
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		delta := int32(1)
		if x.Op == "--" {
			delta = -1
		}
		sg.emitAt(opIncDec, delta, 0, x)
		c.store(sg, x.X) // result stays on the stack
	case "delete":
		switch tg := x.X.(type) {
		case *Member:
			sg.emitCharged(opStep, 0, 0, x)
			c.expr(sg, tg.X)
			sg.emitAt(opDelProp, c.name(tg.Name), 0, x)
		case *Index:
			sg.emitCharged(opStep, 0, 0, x)
			c.expr(sg, tg.X)
			c.expr(sg, tg.I)
			sg.emitAt(opDelIndex, 0, 0, x)
		default:
			// Deleting a variable is a sloppy-mode no-op yielding true;
			// the operand is not evaluated.
			sg.emitCharged(opConst, c.constIdx(True), 0, x)
		}
	case "-":
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opNeg, 0, 0, x)
	case "+":
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opPlus, 0, 0, x)
	case "!":
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opNot, 0, 0, x)
	case "~":
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opBitNot, 0, 0, x)
	default:
		sg.emitCharged(opStep, 0, 0, x)
		c.expr(sg, x.X)
		sg.emitAt(opFail, c.name(fmt.Sprintf("unhandled unary operator %q", x.Op)), 0, x)
	}
}

// store emits the write of the value on top of the stack to an assignment
// target, leaving the value on the stack (assignment is an expression).
// Member/Index receivers are (re-)evaluated here with full charging,
// mirroring assignTo's eval of tg.X / tg.I.
func (c *compiler) store(sg *segment, target Expr) {
	switch tg := target.(type) {
	case *Ident:
		if hops, slot, ok := c.resolve(tg.Name); ok {
			sg.emitAt(opStoreSlot, hops, slot, tg)
		} else {
			sg.emitAt(opStoreName, c.name(tg.Name), 0, tg)
		}
	case *Member:
		c.expr(sg, tg.X)
		sg.emitAt(opStoreProp, c.name(tg.Name), 0, tg)
	case *Index:
		c.expr(sg, tg.X)
		c.expr(sg, tg.I)
		sg.emitAt(opStoreIndex, 0, 0, tg)
	default:
		sg.emitAt(opFail, c.name(fmt.Sprintf("invalid assignment target %T", target)), 0, target)
	}
}

// mentionsArguments reports whether a function body could observe the
// `arguments` binding. Nested functions are included (conservative — they
// define their own at invoke time, but scanning them only costs a spurious
// define, never a behaviour change).
func mentionsArguments(body []Stmt) bool {
	found := false
	walkStmts(body, func(n Node) bool {
		if id, ok := n.(*Ident); ok && id.Name == "arguments" {
			found = true
			return false
		}
		return !found
	})
	return found
}

// walkStmts visits every node under the statements; fn returning false
// stops descent.
func walkStmts(body []Stmt, fn func(Node) bool) {
	for _, s := range body {
		walkNode(s, fn)
	}
}

func walkNode(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *VarDecl:
		walkExpr(x.Init, fn)
	case *VarDeclGroup:
		for _, d := range x.Decls {
			walkNode(d, fn)
		}
	case *FuncDecl:
		walkNode(x.Fn, fn)
	case *ExprStmt:
		walkExpr(x.X, fn)
	case *IfStmt:
		walkExpr(x.Cond, fn)
		walkStmts(x.Then, fn)
		walkStmts(x.Else, fn)
	case *WhileStmt:
		walkExpr(x.Cond, fn)
		walkStmts(x.Body, fn)
	case *DoWhileStmt:
		walkExpr(x.Cond, fn)
		walkStmts(x.Body, fn)
	case *ForStmt:
		if x.Init != nil {
			walkNode(x.Init, fn)
		}
		walkExpr(x.Cond, fn)
		walkExpr(x.Post, fn)
		walkStmts(x.Body, fn)
	case *ReturnStmt:
		walkExpr(x.X, fn)
	case *ThrowStmt:
		walkExpr(x.X, fn)
	case *BlockStmt:
		walkStmts(x.Body, fn)
	case *SwitchStmt:
		walkExpr(x.Tag, fn)
		for _, cs := range x.Cases {
			walkExpr(cs.Value, fn)
			walkStmts(cs.Body, fn)
		}
		walkStmts(x.Default, fn)
	case *ForInStmt:
		walkExpr(x.X, fn)
		walkStmts(x.Body, fn)
	case *TryStmt:
		walkStmts(x.Body, fn)
		walkStmts(x.Catch, fn)
		walkStmts(x.Finally, fn)
	case *ArrayLit:
		for _, e := range x.Elems {
			walkExpr(e, fn)
		}
	case *ObjectLit:
		for _, e := range x.Values {
			walkExpr(e, fn)
		}
	case *FuncLit:
		walkStmts(x.Body, fn)
	case *Unary:
		walkExpr(x.X, fn)
	case *Postfix:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Logical:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Cond:
		walkExpr(x.Test, fn)
		walkExpr(x.Then, fn)
		walkExpr(x.Else, fn)
	case *Assign:
		walkExpr(x.Target, fn)
		walkExpr(x.Value, fn)
	case *Member:
		walkExpr(x.X, fn)
	case *Index:
		walkExpr(x.X, fn)
		walkExpr(x.I, fn)
	case *Call:
		walkExpr(x.Fn, fn)
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *New:
		walkExpr(x.Fn, fn)
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	}
}

func walkExpr(e Expr, fn func(Node) bool) {
	if e != nil {
		walkNode(e, fn)
	}
}
