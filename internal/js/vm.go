package js

import (
	"fmt"
	"math"
)

// The VM executes the bytecode produced by compiler.go on the same Interp
// state (op counters, op limit, call depth, globals, environments) the tree
// walker uses. The two engines share every semantic helper — getProp, arith,
// toInt32, storeProp/storeIndex, invoke, catchable — so behaviour and op
// accounting are identical by construction. Run always compiles; the tree
// walker's execution half is kept only as the reference the differential
// fuzz target (FuzzVMvsInterp) and the TestVMParity* tests compare against.

// RunCompiled executes a compiled program in the global scope.
func (in *Interp) RunCompiled(cp *CompiledProgram) error {
	if in.vstack == nil {
		in.vstack = make([]Value, 0, 64)
	}
	_, _, err := in.runSeg(cp.main, cp.u, in.Globals)
	return err
}

// childScope returns the environment a segment's body runs in: a fresh
// frame when the segment defines bindings, the enclosing scope otherwise.
func childScope(sg *segment, env *Env) *Env {
	if sg.scopeless {
		return env
	}
	return NewEnvCap(env, int(sg.locals))
}

// stepAt charges one op against the limit, anchored to a source position —
// the VM's form of step().
func (in *Interp) stepAt(line, col int32) error {
	in.ops++
	if in.ops > in.opLimit {
		return &RuntimeError{Line: int(line), Col: int(col), Msg: "operation limit exceeded (runaway script?)"}
	}
	return nil
}

// runSeg executes one segment in env, truncating this invocation's stack
// frame on the way out. It is the VM analogue of execBlock: function
// declarations hoist at every entry, and ctrl returns propagate to the
// caller exactly like execBlock's.
func (in *Interp) runSeg(sg *segment, u *unit, env *Env) (Value, ctrl, error) {
	base := len(in.vstack)
	v, c, err := in.execSeg(sg, u, env)
	in.vstack = in.vstack[:base]
	return v, c, err
}

// evalSeg runs a mini expression segment (ending in opRet) for its value.
func (in *Interp) evalSeg(sg *segment, u *unit, env *Env) (Value, error) {
	v, _, err := in.runSeg(sg, u, env)
	return v, err
}

func (in *Interp) push(v Value) { in.vstack = append(in.vstack, v) }

func (in *Interp) pop() Value {
	v := in.vstack[len(in.vstack)-1]
	in.vstack = in.vstack[:len(in.vstack)-1]
	return v
}

func (in *Interp) peek() Value { return in.vstack[len(in.vstack)-1] }

func (in *Interp) execSeg(sg *segment, u *unit, env *Env) (Value, ctrl, error) {
	for _, h := range sg.hoists {
		fn := &Function{Name: h.name, Params: h.fn.params, Body: h.fn.srcBody, Env: env, Code: h.fn}
		env.Define(h.name, ObjVal(&Object{Fn: fn}))
	}
	code := sg.code
	for pc := 0; pc < len(code); pc++ {
		is := &code[pc]
		if is.Charge {
			in.ops++
			if in.ops > in.opLimit {
				return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: "operation limit exceeded (runaway script?)"}
			}
		}
		switch is.Op {
		case opStep:
			// charge only

		case opConst:
			in.push(u.consts[is.A])

		case opThis:
			if v, ok := env.Lookup("this"); ok {
				in.push(v)
			} else {
				in.push(Undefined)
			}

		case opLoad:
			name := u.names[is.A]
			v, ok := env.Lookup(name)
			if !ok {
				return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: name + " is not defined"}
			}
			in.push(v)

		case opTypeofName:
			if v, ok := env.Lookup(u.names[is.A]); ok {
				in.push(Str(TypeOf(v)))
			} else {
				in.push(Str("undefined"))
			}

		case opClosure:
			cf := u.fns[is.A]
			fn := &Function{Name: cf.name, Params: cf.params, Body: cf.srcBody, Env: env, Code: cf}
			fv := ObjVal(&Object{Fn: fn})
			if cf.name != "" {
				// Named function expressions can refer to themselves.
				scope := NewEnv(env)
				scope.Define(cf.name, fv)
				fn.Env = scope
			}
			in.push(fv)

		case opPop:
			in.pop()

		case opDup:
			in.push(in.peek())

		case opSwap:
			n := len(in.vstack)
			in.vstack[n-1], in.vstack[n-2] = in.vstack[n-2], in.vstack[n-1]

		case opJmp:
			pc = int(is.A) - 1

		case opJF:
			if !in.pop().Truthy() {
				pc = int(is.A) - 1
			}

		case opJFK:
			if !in.peek().Truthy() {
				pc = int(is.A) - 1
			} else {
				in.pop()
			}

		case opJTK:
			if in.peek().Truthy() {
				pc = int(is.A) - 1
			} else {
				in.pop()
			}

		case opBinop:
			r := in.pop()
			l := in.pop()
			v, err := binop(is, u, l, r)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.push(v)

		case opArith:
			r := in.pop()
			l := in.pop()
			v, err := arithByCode(is, u, l, r)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.push(v)

		case opArithRev:
			l := in.pop()
			r := in.pop()
			v, err := arithByCode(is, u, l, r)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.push(v)

		case opNeg:
			in.push(Num(-in.pop().Number()))

		case opPlus:
			in.push(Num(in.pop().Number()))

		case opNot:
			in.push(Boolean(!in.pop().Truthy()))

		case opBitNot:
			in.push(Num(float64(^toInt32(in.pop().Number()))))

		case opTypeof:
			in.push(Str(TypeOf(in.pop())))

		case opIncDec:
			in.push(Num(in.pop().Number() + float64(is.A)))

		case opPostfix:
			old := in.pop().Number()
			in.push(Num(old))
			in.push(Num(old + float64(is.A)))

		case opGetProp:
			recv := in.pop()
			v, err := in.getProp(is, recv, u.names[is.A])
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.push(v)

		case opGetIndex:
			idx := in.pop()
			recv := in.pop()
			// Dense-array fast path: an integral in-range index on a plain
			// array reaches Object.Get's Elems[i] branch and nothing else
			// (arrayMethod never matches a numeric name), so the float→string
			// →int round-trip through getProp is pure overhead.
			if recv.kind == KindObject && idx.kind == KindNumber {
				if o := recv.obj; o.IsArray && o.Host == nil &&
					idx.num >= 0 && idx.num < float64(len(o.Elems)) {
					if i := int(idx.num); float64(i) == idx.num {
						in.push(o.Elems[i])
						continue
					}
				}
			}
			v, err := in.getProp(is, recv, idx.Text())
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.push(v)

		case opStoreName:
			env.Assign(u.names[is.A], in.peek())

		case opStoreNamePop:
			env.Assign(u.names[is.A], in.pop())

		case opLoadSlot:
			e := env
			for n := is.A; n > 0; n-- {
				e = e.parent
			}
			in.push(e.vals[is.B])

		case opStoreSlot:
			e := env
			for n := is.A; n > 0; n-- {
				e = e.parent
			}
			e.vals[is.B] = in.peek()

		case opStoreSlotPop:
			e := env
			for n := is.A; n > 0; n-- {
				e = e.parent
			}
			e.vals[is.B] = in.pop()

		case opStoreProp:
			recv := in.pop()
			if err := in.storeProp(recv, u.names[is.A], in.peek(), int(is.Line), int(is.Col)); err != nil {
				return Undefined, ctrlNone, err
			}

		case opStoreIndex:
			idx := in.pop()
			recv := in.pop()
			// In-range overwrite of a dense array element: SetMetered's
			// Elems[i] = v branch, which neither grows nor charges.
			if recv.kind == KindObject && idx.kind == KindNumber {
				if o := recv.obj; o.IsArray && o.Host == nil &&
					idx.num >= 0 && idx.num < float64(len(o.Elems)) {
					if i := int(idx.num); float64(i) == idx.num {
						o.Elems[i] = in.peek()
						continue
					}
				}
			}
			if err := in.storeIndex(recv, idx, in.peek(), int(is.Line), int(is.Col)); err != nil {
				return Undefined, ctrlNone, err
			}

		case opDelProp:
			if o := in.pop().Object(); o != nil {
				o.Delete(u.names[is.A])
			}
			in.push(True)

		case opDelIndex:
			idx := in.pop()
			if o := in.pop().Object(); o != nil {
				o.Delete(idx.Text())
			}
			in.push(True)

		case opDefine:
			env.Define(u.names[is.A], in.pop())

		case opMakeArray:
			n := int(is.A)
			arr := NewArray()
			if n > 0 {
				arr.Elems = append(arr.Elems, in.vstack[len(in.vstack)-n:]...)
				in.vstack = in.vstack[:len(in.vstack)-n]
			}
			in.push(ObjVal(arr))

		case opMakeObj:
			keys := u.keysets[is.A]
			n := len(keys)
			o := NewObject()
			vals := in.vstack[len(in.vstack)-n:]
			for i, k := range keys {
				o.Set(k, vals[i])
			}
			in.vstack = in.vstack[:len(in.vstack)-n]
			in.push(ObjVal(o))

		case opCheckCall:
			o := in.peek().Object()
			if o == nil || o.Fn == nil {
				return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: u.names[is.A] + " is not a function"}
			}

		case opCall:
			// Stack: this, fn, args... The callee reads its arguments in
			// place (see callArgs) and the frame is popped once it returns.
			top := len(in.vstack)
			base := top - int(is.A)
			this, fn := in.vstack[base-2], in.vstack[base-1]
			v, err := in.invoke(fn.Object().Fn, this, in.callArgs(base, top), is)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.vstack = in.vstack[:base-2]
			in.push(v)

		case opCheckCtor:
			o := in.peek().Object()
			if o == nil || o.Fn == nil {
				return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: "not a constructor"}
			}

		case opNew:
			// Stack: fn, args...
			top := len(in.vstack)
			base := top - int(is.A)
			fn := in.vstack[base-1]
			this := ObjVal(NewObject())
			ret, err := in.invoke(fn.Object().Fn, this, in.callArgs(base, top), is)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			in.vstack = in.vstack[:base-1]
			if ret.Kind() == KindObject {
				in.push(ret)
			} else {
				in.push(this)
			}

		case opRet:
			return in.pop(), ctrlReturn, nil

		case opBreak:
			return Undefined, ctrlBreak, nil

		case opContinue:
			return Undefined, ctrlContinue, nil

		case opThrow:
			v := in.pop()
			return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: "uncaught: " + v.Text(), Thrown: &v}

		case opRunBlock:
			sub := u.segs[is.A]
			v, c, err := in.runSeg(sub, u, childScope(sub, env))
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c != ctrlNone {
				return v, c, nil
			}

		case opRunLoopBody:
			sub := u.segs[is.A]
			v, c, err := in.runSeg(sub, u, childScope(sub, env))
			if err != nil {
				return Undefined, ctrlNone, err
			}
			switch c {
			case ctrlBreak:
				pc = int(is.B) - 1
			case ctrlReturn:
				return v, c, nil
			}
			// ctrlContinue and ctrlNone fall through to the per-iteration
			// step, exactly like the interpreter's loop bodies.

		case opPushScope:
			env = NewEnvCap(env, int(is.A))

		case opPopScope:
			env = env.parent

		case opForIn:
			v, c, err := in.vmForIn(u.forins[is.A], u, env)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c != ctrlNone {
				return v, c, nil
			}

		case opSwitch:
			v, c, err := in.vmSwitch(u.switches[is.A], u, env)
			if err != nil || c == ctrlReturn || c == ctrlContinue {
				return v, c, err
			}

		case opTry:
			v, c, err := in.vmTry(u.tries[is.A], u, env)
			if err != nil {
				return Undefined, ctrlNone, err
			}
			if c != ctrlNone {
				return v, c, nil
			}

		case opFail:
			return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: u.names[is.A]}

		default:
			return Undefined, ctrlNone, &RuntimeError{Line: int(is.Line), Col: int(is.Col), Msg: fmt.Sprintf("vm: unknown opcode %d", is.Op)}
		}
	}
	return Undefined, ctrlNone, nil
}

// callArgs is the argument list of a call whose arguments occupy
// vstack[base:top]: a view of the value stack, not a copy. The stack stays
// unpopped while the callee runs, so the callee's own frames push above top
// and never overwrite the view, and the capacity is capped at top, so an
// append to the view copies instead of writing into the stack. The view is
// valid only until the callee returns: a callee that keeps its arguments
// (an arguments object, a native storing the slice) must copy them.
func (in *Interp) callArgs(base, top int) []Value {
	if base == top {
		return nil
	}
	return in.vstack[base:top:top]
}

// vmForIn mirrors exec's ForInStmt case: scope with the loop variable,
// body in a child scope per key, per-iteration charge after the body.
func (in *Interp) vmForIn(p *forinPlan, u *unit, env *Env) (Value, ctrl, error) {
	x := in.pop()
	o := x.Object()
	if o == nil {
		return Undefined, ctrlNone, nil // for-in over non-object: no-op
	}
	scope := NewEnv(env)
	scope.Define(p.name, Undefined)
	for _, k := range o.Keys() {
		scope.Assign(p.name, Str(k))
		v, c, err := in.runSeg(p.body, u, childScope(p.body, scope))
		if err != nil {
			return Undefined, ctrlNone, err
		}
		if c == ctrlBreak {
			break
		}
		if c == ctrlReturn {
			return v, c, nil
		}
		if err := in.stepAt(p.line, p.col); err != nil {
			return Undefined, ctrlNone, err
		}
	}
	return Undefined, ctrlNone, nil
}

// vmSwitch mirrors execSwitch: one shared clause scope, case values
// evaluated (and charged) only until the first strict-equality match,
// fall-through from the matched clause, default interleaved in source order.
func (in *Interp) vmSwitch(p *switchPlan, u *unit, env *Env) (Value, ctrl, error) {
	tag := in.pop()
	scope := NewEnv(env)
	start := -1
	for i, vs := range p.caseVals {
		v, err := in.evalSeg(vs, u, scope)
		if err != nil {
			return Undefined, ctrlNone, err
		}
		if tag.StrictEquals(v) {
			start = i
			break
		}
	}
	first := -1
	for i, cl := range p.clauses {
		if cl.caseIdx == start {
			first = i
			break
		}
	}
	if first < 0 {
		return Undefined, ctrlNone, nil
	}
	for _, cl := range p.clauses[first:] {
		v, c, err := in.runSeg(cl.body, u, scope)
		if err != nil || c == ctrlReturn || c == ctrlContinue {
			return v, c, err
		}
		if c == ctrlBreak {
			break
		}
	}
	return Undefined, ctrlNone, nil
}

// vmTry mirrors execTry, including finally's control flow overriding the
// try/catch outcome and the uncatchability of resource-limit errors.
func (in *Interp) vmTry(p *tryPlan, u *unit, env *Env) (Value, ctrl, error) {
	v, c, err := in.runSeg(p.body, u, childScope(p.body, env))
	if err != nil && p.catch != nil && catchable(err) {
		scope := env
		if p.catchName != "" || !p.catch.scopeless {
			scope = NewEnv(env)
		}
		if p.catchName != "" {
			scope.Define(p.catchName, thrownValue(err))
		}
		v, c, err = in.runSeg(p.catch, u, scope)
	}
	if p.finally != nil {
		fv, fc, ferr := in.runSeg(p.finally, u, childScope(p.finally, env))
		if ferr != nil {
			return Undefined, ctrlNone, ferr
		}
		if fc != ctrlNone {
			return fv, fc, nil
		}
	}
	return v, c, err
}

// binop applies a full binary operator (equality, relational, arithmetic) —
// the VM form of evalBinary's operator dispatch. The operator was resolved
// to an integer code at compile time (Instr.B); names[A] keeps the source
// spelling for the unhandled-operator diagnostic.
func binop(is *Instr, u *unit, l, r Value) (Value, error) {
	switch is.B {
	case cmpStrictEq:
		return Boolean(l.StrictEquals(r)), nil
	case cmpStrictNe:
		return Boolean(!l.StrictEquals(r)), nil
	case cmpLooseEq:
		return Boolean(l.LooseEquals(r)), nil
	case cmpLooseNe:
		return Boolean(!l.LooseEquals(r)), nil
	case cmpLt, cmpGt, cmpLe, cmpGe:
		if l.kind == KindNumber && r.kind == KindNumber {
			switch is.B {
			case cmpLt:
				return Boolean(l.num < r.num), nil
			case cmpGt:
				return Boolean(l.num > r.num), nil
			case cmpLe:
				return Boolean(l.num <= r.num), nil
			default:
				return Boolean(l.num >= r.num), nil
			}
		}
		if l.kind == KindString && r.kind == KindString {
			a, b := l.str, r.str
			switch is.B {
			case cmpLt:
				return Boolean(a < b), nil
			case cmpGt:
				return Boolean(a > b), nil
			case cmpLe:
				return Boolean(a <= b), nil
			default:
				return Boolean(a >= b), nil
			}
		}
		a, b := l.Number(), r.Number()
		switch is.B {
		case cmpLt:
			return Boolean(a < b), nil
		case cmpGt:
			return Boolean(a > b), nil
		case cmpLe:
			return Boolean(a <= b), nil
		default:
			return Boolean(a >= b), nil
		}
	default:
		return arithByCode(is, u, l, r)
	}
}

// arithByCode is arith() dispatched on the compile-time operator code, with
// the two-number fast path inlined. Semantics match arith() exactly.
func arithByCode(is *Instr, u *unit, l, r Value) (Value, error) {
	if l.kind == KindNumber && r.kind == KindNumber {
		switch is.B {
		case arithAdd:
			return Num(l.num + r.num), nil
		case arithSub:
			return Num(l.num - r.num), nil
		case arithMul:
			return Num(l.num * r.num), nil
		case arithDiv:
			return Num(l.num / r.num), nil
		}
	}
	if is.B == arithAdd {
		if l.kind == KindString || r.kind == KindString {
			return Str(l.Text() + r.Text()), nil
		}
		return Num(l.Number() + r.Number()), nil
	}
	a, b := l.Number(), r.Number()
	switch is.B {
	case arithSub:
		return Num(a - b), nil
	case arithMul:
		return Num(a * b), nil
	case arithDiv:
		return Num(a / b), nil
	case arithMod:
		return Num(math.Mod(a, b)), nil
	case arithBand:
		return Num(float64(toInt32(a) & toInt32(b))), nil
	case arithBor:
		return Num(float64(toInt32(a) | toInt32(b))), nil
	case arithBxor:
		return Num(float64(toInt32(a) ^ toInt32(b))), nil
	case arithShl:
		return Num(float64(toInt32(a) << (uint32(toInt32(b)) & 31))), nil
	case arithShr:
		return Num(float64(toInt32(a) >> (uint32(toInt32(b)) & 31))), nil
	default:
		return arith(is, u.names[is.A], l, r) // unhandled-operator diagnostic
	}
}
