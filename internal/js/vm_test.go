package js

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// ---- differential harness: tree-walker vs bytecode VM ----
//
// The VM's contract is total observational equivalence with the tree
// walker: same result values, same error strings, and — critically for the
// energy model — the same Ops() count for every program. These tests run
// each source through both engines and diff a full state dump.

// dumpValue renders a value with a depth bound so cyclic object graphs
// (constructible by fuzzed programs) cannot hang the harness.
func dumpValue(v Value, depth int) string {
	if depth > 6 {
		return "<deep>"
	}
	o := v.Object()
	if o == nil || o.Fn != nil {
		if o != nil && o.Fn != nil {
			return "<function " + o.Fn.Name + ">"
		}
		return v.Text()
	}
	var b strings.Builder
	if o.IsArray {
		b.WriteString("[")
		for i, e := range o.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(dumpValue(e, depth+1))
		}
		b.WriteString("]")
		return b.String()
	}
	b.WriteString("{")
	for i, k := range o.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", k, dumpValue(o.Props[k], depth+1))
	}
	b.WriteString("}")
	return b.String()
}

// dumpState renders the observable outcome of a run: error, op count, and
// every global binding in sorted name order.
func dumpState(in *Interp, runErr error) string {
	var b strings.Builder
	if runErr != nil {
		fmt.Fprintf(&b, "err=%v\n", runErr)
	}
	fmt.Fprintf(&b, "ops=%d\n", in.Ops())
	g := in.Globals
	var names []string
	names = append(names, g.names...)
	for k := range g.vars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		v, _ := g.getLocal(n)
		fmt.Fprintf(&b, "%s=%s\n", n, dumpValue(v, 0))
	}
	return b.String()
}

// runEngine executes src on one engine and returns the state dump.
func runEngine(src string, useVM bool, opLimit int64) string {
	prog, err := Parse(src)
	if err != nil {
		return "parse:" + err.Error()
	}
	in := NewInterp()
	in.InstallStdlib(nil)
	if opLimit > 0 {
		in.SetOpLimit(opLimit)
	}
	var runErr error
	if useVM {
		runErr = in.RunCompiled(Compile(prog))
	} else {
		_, _, runErr = in.execBlock(prog.Body, in.Globals)
	}
	return dumpState(in, runErr)
}

func assertEnginesAgree(t *testing.T, src string, opLimit int64) {
	t.Helper()
	tree := runEngine(src, false, opLimit)
	vm := runEngine(src, true, opLimit)
	if tree != vm {
		t.Errorf("engines diverge on:\n%s\n--- tree ---\n%s--- vm ---\n%s", src, tree, vm)
	}
}

// parityCorpus covers every AST node kind and every op-charging subtlety in
// the interpreter: loop per-iteration charges, compound-assignment triple
// evaluation, callee-before-args validation, switch fall-through in one
// shared scope, try/catch/finally control overrides, hoisting.
var parityCorpus = []string{
	// literals, identifiers, binary/unary/ternary expressions
	`var a = 1 + 2 * 3 - 4 / 2 % 3;`,
	`var s = "a" + 1 + true + null + undefined;`,
	`var b = 1 < 2 && "a" < "b" || !false; var c = 3 >= 3 ? ~5 : -5;`,
	`var e1 = 1 == "1"; var e2 = 1 === "1"; var e3 = null == undefined; var e4 = 2 != 3; var e5 = 2 !== 2;`,
	`var sh = (1 << 4) | (255 >> 2) & (6 ^ 3);`,
	`var t1 = typeof 1; var t2 = typeof missing; var t3 = typeof typeof missing;`,
	`var n1 = +"3.5"; var n2 = -"2"; var n3 = +"nope";`,
	// short-circuit value semantics (|| and && return operands, not booleans)
	`var x = 0 || "fallback"; var y = "v" && 42; var z = null && boom();`,
	// var declarations, assignment forms, compound ops
	`var a; var b = 2, c = b + 1; a = b = c;`,
	`var n = 10; n += 5; n -= 3; n *= 2; n /= 4; n %= 4;`,
	`var o = {v: 1}; o.v += 2; var a = [7]; a[0] *= 3;`,
	// prefix/postfix on names, members, indexes
	`var i = 0; var p1 = i++; var p2 = ++i; var p3 = i--; var p4 = --i;`,
	`var o = {n: 5}; o.n++; --o.n; var a = [1]; a[0]++; var r = a[0];`,
	// objects, arrays, member/index access, delete
	`var o = {a: 1, "b c": 2, 7: 3}; var r = o.a + o["b c"] + o[7];`,
	`var o = {a: 1, b: 2}; delete o.a; delete o["b"]; var k = Object.keys(o).length; var dv = delete missingName;`,
	`var a = [1, [2, [3]]]; var r = a[1][1][0]; a[5] = 9; var len = a.length;`,
	// this, new, constructors
	`function C(v) { this.v = v; } var c = new C(4); var r = c.v;`,
	`function F() { return {x: 1}; } var f = new F(); var r = f.x;`,
	`function G() { return 5; } var g = new G(); var r = typeof g;`,
	// functions: decls, exprs, named exprs, closures, arguments, recursion
	`function add(a, b) { return a + b; } var r = add(1, 2) + add(1);`,
	`var f = function(x) { return x * 2; }; var r = f(21);`,
	`var f = function self(n) { return n <= 0 ? 0 : n + self(n - 1); }; var r = f(4);`,
	`function outer() { var n = 0; return function() { return ++n; }; } var c = outer(); c(); var r = c();`,
	`function va() { return arguments.length + arguments[1]; } var r = va(10, 20, 30);`,
	`function noargs() { return 1; } var r = noargs(9, 9);`,
	`hoisted(); function hoisted() { before = 1; } var r = before;`,
	// if/else chains
	`var r = ""; if (1) { r += "a"; } if (0) { r += "b"; } else { r += "c"; } if (0) r += "d"; else if (1) r += "e";`,
	// while/do-while/for with break/continue (per-iteration charge parity)
	`var s = 0; for (var i = 0; i < 10; i++) { if (i % 2) continue; if (i > 6) break; s += i; }`,
	`var i = 0, s = 0; while (i < 5) { i++; if (i === 3) continue; s += i; }`,
	`var i = 0, s = 0; do { s += i; i++; } while (i < 4);`,
	`var i = 10; while (i--) { if (i < 5) break; }`,
	`var s = 0; for (;;) { s++; if (s > 3) break; }`,
	`var s = ""; for (var a = 0, b = 9; a < b; a++) { s += a; b--; }`,
	// nested loops with break/continue crossing block scopes
	`var s = 0; for (var i = 0; i < 4; i++) { for (var j = 0; j < 4; j++) { if (j === 2) break; if (i === j) continue; s += i * 10 + j; } }`,
	// for-in over objects and arrays
	`var o = {b: 2, a: 1, c: 3}; var ks = ""; var sum = 0; for (var k in o) { ks += k; sum += o[k]; }`,
	`var a = [5, 6, 7]; var t = 0; for (var k in a) { t += a[k]; } for (var q in 5) { t = -1; }`,
	`var o = {a: 1, b: 2, c: 3}; var n = 0; for (var k in o) { if (k === "b") break; n++; }`,
	`function f() { for (var k in {x: 1, y: 2}) { return k; } } var r = f();`,
	// switch: fall-through, default interleave, shared clause scope, break
	`var r = ""; switch (2) { case 1: r += "a"; case 2: r += "b"; case 3: r += "c"; break; case 4: r += "d"; }`,
	`var r = ""; switch (9) { case 1: r += "a"; default: r += "d"; case 2: r += "b"; }`,
	`var r = ""; switch (2) { case 1: r += "a"; default: r += "d"; case 2: r += "b"; }`,
	`var r = 0; switch (3) { case 1: case 2: r = 12; break; case 3: case 4: r = 34; }`,
	`var s = ""; for (var i = 0; i < 4; i++) { switch (i) { case 1: continue; case 2: break; default: s += i; } s += "."; }`,
	// throw/try/catch/finally control flow
	`var r = ""; try { r += "t"; throw "boom"; } catch (e) { r += "c" + e; } finally { r += "f"; }`,
	`var r = ""; try { r += "t"; } finally { r += "f"; }`,
	`function f() { try { return "t"; } finally { sideEffect = 1; } } var r = f();`,
	`function f() { try { return "t"; } finally { return "f"; } } var r = f();`,
	`var r = ""; try { try { throw 1; } finally { r += "inner"; } } catch (e) { r += "outer" + e; }`,
	`var r = ""; try { missingFn(); } catch (e) { r = "caught: " + e; }`,
	`var r = ""; try { null.x; } catch (e) { r = "caught"; }`,
	`var i = 0; while (i < 3) { try { i++; continue; } finally { lastI = i; } }`,
	`var s = 0; for (var i = 0; i < 5; i++) { try { if (i === 2) continue; if (i === 4) break; } finally { s += 10; } s += 1; }`,
	// errors: op limits, stack overflow, bad calls (uncatchable vs catchable)
	`function f() { return f(); } f();`,
	`var notFn = 3; notFn();`,
	`var o = {}; o.missing();`,
	`new missingCtor();`,
	`undefinedGlobal.x = 1;`,
	// callee validated before args are evaluated (evalCall ordering)
	`var log = ""; function t(x) { log += x; return x; } try { nope(t("a"), t("b")); } catch (e) { caught = 1; } var r = log;`,
	// stdlib interactions that charge extra ops
	`var a = [3, 1, 2]; a.sort(); var r = a.join(",");`,
	`var a = [3, 1, 2]; a.sort(function(x, y) { return x - y; }); var r = a.join(",");`,
	`var r = JSON.stringify({b: [1, {c: true}], a: null});`,
	`var o = JSON.parse("{\"k\": [1, 2]}"); var r = o.k[1];`,
	`var s = "Hello World"; var r = s.toLowerCase() + s.indexOf("W") + s.slice(2, 5) + s.split(" ").length;`,
	`var a = [1, 2]; a.push(3); a.unshift(0); var r = a.pop() + a.shift() + a.length;`,
	`var r = Math.max(1, 9, 4) + Math.min(2, 8) + Math.floor(2.9) + Math.abs(-3);`,
	`var big = []; big.length = 5; var r = big.length; var caught = 0; try { big.length = 1e18; } catch (e) { caught = 1; }`,
	`var a = []; var caught = 0; try { a[9999999999] = 1; } catch (e) { caught = 1; }`,
	// string/number coercion corners
	`var r = [10, 9, 1].sort().join(",");`,
	`var r1 = "5" - 2; var r2 = "5" + 2; var r3 = [] + {}; var r4 = 1 / 0; var r5 = -1 / 0; var r6 = 0 / 0 !== 0 / 0;`,
}

func TestVMParityCorpus(t *testing.T) {
	for _, src := range parityCorpus {
		assertEnginesAgree(t, src, 0)
	}
}

// TestVMParityUnderTightOpLimit replays the corpus with a small budget so
// limit-exceeded errors must trigger at the same op on both engines.
func TestVMParityUnderTightOpLimit(t *testing.T) {
	for _, limit := range []int64{1, 7, 23, 61, 150} {
		for _, src := range parityCorpus {
			assertEnginesAgree(t, src, limit)
		}
	}
}

// FuzzVMvsInterp is the differential fuzz target: any parseable program
// must produce identical globals, errors, and op counts on both engines.
func FuzzVMvsInterp(f *testing.F) {
	for _, src := range parityCorpus {
		f.Add(src)
	}
	for _, src := range runFuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil || prog == nil {
			return
		}
		tree := runEngine(src, false, 50_000)
		vm := runEngine(src, true, 50_000)
		if tree != vm {
			t.Errorf("engines diverge on:\n%s\n--- tree ---\n%s--- vm ---\n%s", src, tree, vm)
		}
	})
}

// TestVMCallFunctionDispatch checks that functions created by compiled code
// run on the VM when called later from Go (the browser's callback path).
func TestVMCallFunctionDispatch(t *testing.T) {
	in := NewInterp()
	in.InstallStdlib(nil)
	prog := MustParse(`function cb(x) { return x * 2 + this.base; }`)
	if err := in.RunCompiled(Compile(prog)); err != nil {
		t.Fatal(err)
	}
	fn, _ := in.Globals.Lookup("cb")
	if fn.Object() == nil || fn.Object().Fn == nil || fn.Object().Fn.Code == nil {
		t.Fatal("compiled function should carry bytecode")
	}
	this := NewObject()
	this.Set("base", Num(10))
	v, err := in.CallFunction(fn, ObjVal(this), []Value{Num(16)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Number() != 42 {
		t.Fatalf("CallFunction via VM = %v", v.Number())
	}
}

// ---- satellite regressions: cost-model bugfixes ----

// TestArrayGrowthCharged: growing an array (by length or sparse index)
// must charge ops proportional to the elements created.
func TestArrayGrowthCharged(t *testing.T) {
	opsFor := func(src string) int64 {
		in := runSrc(t, src)
		return in.Ops()
	}
	base := opsFor(`var a = []; a.length = 1;`)
	grown := opsFor(`var a = []; a.length = 1001;`)
	if grown-base != 1000 {
		t.Fatalf("length growth charge = %d, want 1000", grown-base)
	}
	sBase := opsFor(`var a = []; a[0] = 1;`)
	sGrown := opsFor(`var a = []; a[1000] = 1;`)
	if sGrown-sBase != 1000 {
		t.Fatalf("sparse index growth charge = %d, want 1000", sGrown-sBase)
	}
}

// TestArrayGrowthBounded: unbounded growth must fail with a catchable
// runtime error instead of allocating gigabytes (or invoking int(NaN) UB).
func TestArrayGrowthBounded(t *testing.T) {
	for _, src := range []string{
		`var a = []; a.length = 1e9;`,
		`var a = []; a[99999999] = 1;`,
		`var a = []; a.length = NaN;`,
		`var a = []; a.length = Infinity;`,
		`var a = []; a.length = 1.5;`,
		`var a = []; a.length = -2;`,
	} {
		in := NewInterp()
		in.InstallStdlib(nil)
		if err := in.RunSource(src); err == nil {
			t.Errorf("%s: expected runtime error", src)
		}
		in2 := runSrc(t, `var ok = false; try { `+src+` } catch (e) { ok = true; }`)
		if !global(t, in2, "ok").Truthy() {
			t.Errorf("%s: error must be catchable", src)
		}
	}
}

// TestSortChargesComparatorCalls: Array.sort must charge per comparator
// invocation, not a flat multiple of the length.
func TestSortChargesComparatorCalls(t *testing.T) {
	opsFor := func(src string) int64 {
		in := runSrc(t, src)
		return in.Ops()
	}
	// Sorting a sorted 2-element array needs 1 comparison; reverse needs 1
	// too — but an 8-element reversed array needs many more than 8.
	small := opsFor(`[2, 1].sort(function(a, b) { return a - b; });`)
	large := opsFor(`[8,7,6,5,4,3,2,1].sort(function(a, b) { return a - b; });`)
	if large <= small {
		t.Fatalf("sort charge not scaling with comparisons: %d vs %d", small, large)
	}
	// Default (lexicographic) sort still charges its comparisons.
	if opsFor(`[3, 1, 2].sort();`) <= opsFor(`[1].sort();`) {
		t.Fatal("default sort must charge comparisons")
	}
}

// TestSortComparatorErrorRestores: a comparator that throws must leave the
// array in its pre-sort order, not a partial permutation.
func TestSortComparatorErrorRestores(t *testing.T) {
	in := runSrc(t, `
		var a = [5, 3, 9, 1, 7];
		var caught = "";
		try {
			a.sort(function(x, y) { if (x === 1 || y === 1) { throw "nope"; } return x - y; });
		} catch (e) { caught = e; }
		var out = a.join(",");
	`)
	if global(t, in, "caught").Text() != "nope" {
		t.Fatal("comparator error must propagate")
	}
	if got := global(t, in, "out").Text(); got != "5,3,9,1,7" {
		t.Fatalf("array after failed sort = %q, want original order", got)
	}
}

// TestJSONStringifyInsertionOrder: stringify must emit keys in insertion
// order (matching real engines), not sorted.
func TestJSONStringifyInsertionOrder(t *testing.T) {
	in := runSrc(t, `
		var o = {z: 1};
		o.a = 2;
		o.m = 3;
		delete o.a;
		o.a = 4;
		var r = JSON.stringify(o);
		var uv;
		var u = typeof JSON.stringify(uv);
		var fn = typeof JSON.stringify(function(){});
	`)
	if got := global(t, in, "r").Text(); got != `{"z":1,"m":3,"a":4}` {
		t.Fatalf("stringify order = %s", got)
	}
	if global(t, in, "u").Text() != "undefined" || global(t, in, "fn").Text() != "undefined" {
		t.Fatal("top-level undefined/function must stringify to undefined")
	}
}

// ---- compiler unit tests ----

// TestCompileAllNodeKinds compiles every statement and expression form and
// checks the emitted unit is structurally sane (no opFail instructions).
func TestCompileAllNodeKinds(t *testing.T) {
	src := strings.Join(parityCorpus, "\n")
	cp := Compile(MustParse(src))
	var walk func(sg *segment)
	seen := map[*segment]bool{}
	walk = func(sg *segment) {
		if sg == nil || seen[sg] {
			return
		}
		seen[sg] = true
		for _, is := range sg.code {
			if is.Op == opFail {
				t.Errorf("compiler emitted opFail: %s at %d:%d", cp.u.names[is.A], is.Line, is.Col)
			}
		}
	}
	walk(cp.main)
	for _, sg := range cp.u.segs {
		walk(sg)
	}
	for _, fn := range cp.u.fns {
		walk(fn.body)
	}
	for _, p := range cp.u.forins {
		walk(p.body)
	}
	for _, p := range cp.u.switches {
		for _, vs := range p.caseVals {
			walk(vs)
		}
		for _, cl := range p.clauses {
			walk(cl.body)
		}
	}
	for _, p := range cp.u.tries {
		walk(p.body)
		walk(p.catch)
		walk(p.finally)
	}
}

// TestCompileJumpTargets checks every jump lands inside its segment.
func TestCompileJumpTargets(t *testing.T) {
	cp := Compile(MustParse(strings.Join(parityCorpus, "\n")))
	check := func(sg *segment) {
		for i, is := range sg.code {
			switch is.Op {
			case opJmp, opJF, opJFK, opJTK:
				if is.A < 0 || int(is.A) > len(sg.code) {
					t.Errorf("instr %d: jump target %d out of range [0,%d]", i, is.A, len(sg.code))
				}
			case opRunLoopBody:
				if is.B < 0 || int(is.B) > len(sg.code) {
					t.Errorf("instr %d: break target %d out of range", i, is.B)
				}
			}
		}
	}
	check(cp.main)
	for _, sg := range cp.u.segs {
		check(sg)
	}
	for _, fn := range cp.u.fns {
		check(fn.body)
	}
}

// TestCompileNeedArgs checks the arguments-elision analysis stays
// conservative: any textual mention keeps the array.
func TestCompileNeedArgs(t *testing.T) {
	cases := map[string]bool{
		`function f() { return 1; }`:                                   false,
		`function f() { return arguments.length; }`:                    true,
		`function f() { return function() { return arguments[0]; }; }`: true,
		`function f() { if (0) { var x = arguments; } }`:               true,
		`function f(a) { return a; }`:                                  false,
		`function f() { for (var k in arguments) {} }`:                 true,
	}
	for src, want := range cases {
		cp := Compile(MustParse(src))
		var fn *compiledFn
		if len(cp.u.fns) > 0 {
			fn = cp.u.fns[0]
		} else if len(cp.main.hoists) > 0 {
			fn = cp.main.hoists[0].fn
		} else {
			t.Fatalf("%s: no compiled function", src)
		}
		if got := fn.needArgs; got != want {
			t.Errorf("%s: needArgs = %v, want %v", src, got, want)
		}
	}
}

// ---- benchmarks: VM vs tree-walk on script-heavy workloads ----

func benchRun(b *testing.B, src string, vm bool) {
	b.Helper()
	prog := MustParse(src)
	if vm {
		cp := Compile(prog)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := NewInterp()
			if err := in.RunCompiled(cp); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if _, _, err := in.execBlock(prog.Body, in.Globals); err != nil {
			b.Fatal(err)
		}
	}
}

const benchFib = `var f = function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }; f(15);`
const benchLoop = `var s = 0; for (var i = 0; i < 10000; i++) { s += i; }`

func BenchmarkVMFib(b *testing.B)  { benchRun(b, benchFib, true) }
func BenchmarkVMLoop(b *testing.B) { benchRun(b, benchLoop, true) }

// BenchmarkVMCompile measures per-program compilation cost (amortised away
// by the browser asset cache).
func BenchmarkVMCompile(b *testing.B) {
	prog := MustParse(benchFib + benchLoop)
	for i := 0; i < b.N; i++ {
		Compile(prog)
	}
}
