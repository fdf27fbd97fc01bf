package js

import "testing"

// Call-argument ownership: a call from bytecode passes its callee a view of
// the VM's value stack (callArgs). These tests pin what that view must
// survive and what must copy it.

// TestNativeReadsArgsAfterCallback: a native that calls back into script,
// whose frames push deep onto the value stack, still reads its own later
// arguments intact.
func TestNativeReadsArgsAfterCallback(t *testing.T) {
	in := NewInterp()
	in.InstallStdlib(nil)
	in.Globals.Define("callThenSum", NativeFunc("callThenSum", func(in *Interp, this Value, args []Value) (Value, error) {
		if _, err := in.CallFunction(args[0], Undefined, nil); err != nil {
			return Undefined, err
		}
		sum := 0.0
		for _, a := range args[1:] {
			sum += a.Number()
		}
		return Num(sum), nil
	}))
	if err := in.RunSource(`
		function deep(n, a, b, c, d) {
			if (n == 0) { return a + b + c + d; }
			return deep(n - 1, a + 1, b + 1, c + 1, d + 1) + [n, n, n, n, n, n].length;
		}
		var inner = 0;
		var got = callThenSum(function () { inner = deep(40, 100, 200, 300, 400); }, 1, 2, 3, 4, 5);
	`); err != nil {
		t.Fatal(err)
	}
	if g := global(t, in, "got").Number(); g != 15 {
		t.Errorf("native's later args after a callback summed to %v, want 15", g)
	}
	if g := global(t, in, "inner").Number(); g != 100+200+300+400+4*40+6*40 {
		t.Errorf("callback result = %v", g)
	}
}

// TestArgumentsEscapeTheCall: an arguments object outlives its call and
// keeps its own values when later calls reuse the stack slots.
func TestArgumentsEscapeTheCall(t *testing.T) {
	in := runSrc(t, `
		function capture() { return arguments; }
		function twice(x) { return [x, x]; }
		var a = capture(1, 2, 3);
		var b = capture("x", "y");
		twice(7); twice(8);
		a.push(4);
		var out = a.join(",") + "|" + b.join(",") + "|" + a.length + b.length;
	`)
	if got := global(t, in, "out").Text(); got != "1,2,3,4|x,y|42" {
		t.Errorf("escaped arguments = %q, want 1,2,3,4|x,y|42", got)
	}
}

// TestNativeAppendDoesNotWriteTheStack: appending to the argument view
// copies, because its capacity stops at the arguments.
func TestNativeAppendDoesNotWriteTheStack(t *testing.T) {
	in := NewInterp()
	in.InstallStdlib(nil)
	var kept []Value
	in.Globals.Define("keep", NativeFunc("keep", func(in *Interp, this Value, args []Value) (Value, error) {
		kept = append(args, Str("appended"))
		return Undefined, nil
	}))
	in.Globals.Define("probe", NativeFunc("probe", func(in *Interp, this Value, args []Value) (Value, error) {
		return args[0], nil
	}))
	if err := in.RunSource(`var after = 0; keep(1, 2); after = probe(3) + probe(4);`); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 || kept[0].Number() != 1 || kept[1].Number() != 2 || kept[2].Text() != "appended" {
		t.Errorf("kept = %v", kept)
	}
	if g := global(t, in, "after").Number(); g != 7 {
		t.Errorf("after = %v, want 7", g)
	}
}

// envSink keeps the measured Env on the heap, as a call's frame is.
var envSink *Env

// TestBytecodeCallAllocatesOnlyItsEnv: a bytecode→bytecode call with
// arguments allocates the callee's scope frame and nothing else — no
// argument slice.
func TestBytecodeCallAllocatesOnlyItsEnv(t *testing.T) {
	in := runSrc(t, `
		function inner(a, b) { return a + b; }
		function outer() { return inner(1, 2); }
		function outer0() { return 3; }
	`)
	outer, outer0 := global(t, in, "outer"), global(t, in, "outer0")
	innerFn := global(t, in, "inner").Object().Fn
	if outer.Object().Fn.Code.locals != outer0.Object().Fn.Code.locals {
		t.Fatal("outer and outer0 must have equal frames")
	}
	call := testing.AllocsPerRun(200, func() { _, _ = in.CallFunction(outer, Undefined, nil) })
	frame := testing.AllocsPerRun(200, func() { _, _ = in.CallFunction(outer0, Undefined, nil) })
	env := testing.AllocsPerRun(200, func() { envSink = NewEnvCap(innerFn.Env, innerFn.Code.locals) })
	if call-frame != env {
		t.Errorf("inner(1, 2) from bytecode: %v allocs, want %v (its Env only)", call-frame, env)
	}
}
