package js

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates runtime value types.
type Kind int

const (
	// KindUndefined is the undefined value.
	KindUndefined Kind = iota
	// KindNull is the null value.
	KindNull
	// KindBool is a boolean.
	KindBool
	// KindNumber is a float64 number.
	KindNumber
	// KindString is a string.
	KindString
	// KindObject covers objects, arrays, and functions.
	KindObject
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		return "object"
	default:
		return "unknown"
	}
}

// Value is a runtime value.
type Value struct {
	kind Kind
	num  float64
	str  string
	b    bool
	obj  *Object
}

// Undefined and Null are the singleton non-values.
var (
	Undefined = Value{kind: KindUndefined}
	Null      = Value{kind: KindNull}
	True      = Value{kind: KindBool, b: true}
	False     = Value{kind: KindBool}
)

// Num makes a number value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Str makes a string value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Boolean makes a bool value.
func Boolean(b bool) Value {
	if b {
		return True
	}
	return False
}

// ObjVal wraps an object.
func ObjVal(o *Object) Value { return Value{kind: KindObject, obj: o} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether the value is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNullish reports whether the value is null or undefined.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// Object returns the underlying object, or nil for non-objects.
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.obj
	}
	return nil
}

// Truthy applies JavaScript truthiness.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.b
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.str != ""
	default:
		return true
	}
}

// Number coerces the value to a number (JS ToNumber semantics, simplified).
func (v Value) Number() float64 {
	switch v.kind {
	case KindNumber:
		return v.num
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindString:
		s := strings.TrimSpace(v.str)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindNull:
		return 0
	default:
		return math.NaN()
	}
}

// Text coerces the value to a string (JS ToString, simplified).
func (v Value) Text() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindNumber:
		return formatNumber(v.num)
	case KindString:
		return v.str
	default:
		o := v.obj
		switch {
		case o.Fn != nil:
			name := o.Fn.Name
			if name == "" {
				name = "anonymous"
			}
			return "function " + name
		case o.IsArray:
			parts := make([]string, len(o.Elems))
			for i, e := range o.Elems {
				if e.IsNullish() {
					parts[i] = ""
				} else {
					parts[i] = e.Text()
				}
			}
			return strings.Join(parts, ",")
		default:
			return "[object Object]"
		}
	}
}

func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func (v Value) String() string { return v.Text() }

// StrictEquals implements ===.
func (v Value) StrictEquals(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return v.b == o.b
	case KindNumber:
		return v.num == o.num
	case KindString:
		return v.str == o.str
	default:
		return v.obj == o.obj
	}
}

// LooseEquals implements == with the coercions that occur in practice.
func (v Value) LooseEquals(o Value) bool {
	if v.kind == o.kind {
		return v.StrictEquals(o)
	}
	if v.IsNullish() && o.IsNullish() {
		return true
	}
	if v.IsNullish() || o.IsNullish() {
		return false
	}
	return v.Number() == o.Number()
}

// HostObject lets Go-side objects (DOM nodes, style proxies, the browser
// window) participate in property access. Get reports ok=false to fall
// through to ordinary properties; Set reports false to store in the ordinary
// property map instead.
type HostObject interface {
	HostGet(name string) (Value, bool)
	HostSet(name string, v Value) bool
}

// HostKeyer is implemented by host objects whose host properties are
// enumerable. Keys lists them, in the order HostKeys returns, before any
// ordinary property a script stored on the object.
type HostKeyer interface {
	HostKeys() []string
}

// Object is the heap value behind objects, arrays, and functions.
type Object struct {
	// Props is nil until the first named-property write: host objects,
	// arrays and functions rarely get one, and reading a nil map is safe.
	Props   map[string]Value
	Elems   []Value
	IsArray bool
	Fn      *Function
	Host    HostObject

	// order tracks Props keys in insertion order, the enumeration order
	// real JavaScript uses for for-in, Object.keys, and JSON.stringify.
	// Maintained by Set/Delete; re-setting an existing key keeps its slot.
	order []string
}

// NewObject returns an empty plain object.
func NewObject() *Object { return &Object{} }

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{IsArray: true, Elems: elems}
}

// NewHost returns an object backed by a host implementation.
func NewHost(h HostObject) *Object {
	return &Object{Host: h}
}

// Get reads a property, consulting the host first, then array intrinsics,
// then the property map.
func (o *Object) Get(name string) Value {
	if o.Host != nil {
		if v, ok := o.Host.HostGet(name); ok {
			return v
		}
	}
	if o.IsArray {
		if name == "length" {
			return Num(float64(len(o.Elems)))
		}
		if i, err := strconv.Atoi(name); err == nil {
			if i >= 0 && i < len(o.Elems) {
				return o.Elems[i]
			}
			return Undefined
		}
	}
	if v, ok := o.Props[name]; ok {
		return v
	}
	return Undefined
}

// MaxArrayGrowth bounds how many elements a single array store may fill in.
// Scripts that try to grow an array further (a.length = 1e9, a[1e9] = 1) get
// a catchable RuntimeError instead of OOMing the process: the simulated op
// budget could never afford touching that many elements anyway.
const MaxArrayGrowth = 1 << 20

// Set writes a property, consulting the host first. Host Go code uses this
// unmetered entry point; script assignments go through SetMetered so array
// growth is charged and bounded. Out-of-range array writes are dropped here
// rather than allowed to allocate unboundedly.
func (o *Object) Set(name string, v Value) {
	o.SetMetered(nil, name, v) //nolint:errcheck // host writes drop range errors
}

// SetMetered writes a property on behalf of a script: array growth charges
// interpreter ops proportional to the elements filled and is bounded by
// MaxArrayGrowth, and invalid array lengths (NaN, ±Infinity, negative,
// fractional) are rejected like JavaScript's RangeError instead of being
// truncated through an implementation-defined int(float64) conversion.
// A nil interpreter skips the charging (host writes).
func (o *Object) SetMetered(in *Interp, name string, v Value) error {
	if o.Host != nil && o.Host.HostSet(name, v) {
		return nil
	}
	if o.IsArray {
		if name == "length" {
			return o.setLength(in, v)
		}
		if i, err := strconv.Atoi(name); err == nil && i >= 0 {
			if i >= len(o.Elems) {
				fill := i + 1 - len(o.Elems)
				if fill > MaxArrayGrowth {
					return &RuntimeError{Msg: fmt.Sprintf("array index %d grows array by %d elements (limit %d)", i, fill, MaxArrayGrowth)}
				}
				if in != nil {
					in.ChargeOps(int64(fill))
				}
				for len(o.Elems) <= i {
					o.Elems = append(o.Elems, Undefined)
				}
			}
			o.Elems[i] = v
			return nil
		}
	}
	if o.Props == nil {
		o.Props = map[string]Value{}
	}
	if _, exists := o.Props[name]; !exists {
		o.order = append(o.order, name)
	}
	o.Props[name] = v
	return nil
}

// setLength implements assignment to an array's length property with
// JavaScript's validation: the value must be a non-negative integer number
// (ToNumber first), growth is charged per element filled and bounded.
func (o *Object) setLength(in *Interp, v Value) error {
	f := v.Number()
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f != math.Trunc(f) {
		return &RuntimeError{Msg: "invalid array length: " + v.Text()}
	}
	cur := len(o.Elems)
	if f > float64(cur) {
		grow := f - float64(cur)
		if grow > MaxArrayGrowth {
			return &RuntimeError{Msg: fmt.Sprintf("array length %s grows array by %s elements (limit %d)", formatNumber(f), formatNumber(grow), MaxArrayGrowth)}
		}
		if in != nil {
			in.ChargeOps(int64(grow))
		}
		for len(o.Elems) < int(f) {
			o.Elems = append(o.Elems, Undefined)
		}
		return nil
	}
	o.Elems = o.Elems[:int(f)]
	return nil
}

// Delete removes a property, keeping the insertion-order index consistent.
// Array element storage is untouched (delete a[i] leaves a hole in Props
// semantics only), matching the previous interpreter behaviour.
func (o *Object) Delete(name string) {
	if _, ok := o.Props[name]; !ok {
		return
	}
	delete(o.Props, name)
	for i, k := range o.order {
		if k == name {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

// Keys returns the object's own enumerable property names: array indexes
// first, then named properties in insertion order (real JavaScript
// enumeration order, which for-in, Object.keys, and JSON.stringify share).
// A HostKeyer's properties come first, and an ordinary property that
// shadows one is listed once.
func (o *Object) Keys() []string {
	var ks []string
	if hk, ok := o.Host.(HostKeyer); ok {
		ks = hk.HostKeys()
		host := len(ks)
		for _, k := range o.order {
			if !slices.Contains(ks[:host], k) {
				ks = append(ks, k)
			}
		}
		return ks
	}
	if o.IsArray {
		for i := range o.Elems {
			ks = append(ks, strconv.Itoa(i))
		}
	}
	return append(ks, o.order...)
}

// Function is a callable: native (Native), compiled bytecode (Code), or
// tree-walked (Body). Code and Body coexist on functions produced under the
// VM; Code wins at invoke time so a function value compiled once keeps
// running on the VM wherever it flows.
type Function struct {
	Name   string
	Params []string
	Body   []Stmt
	Env    *Env
	Native func(in *Interp, this Value, args []Value) (Value, error)
	Code   *compiledFn
}

// NativeFunc wraps a Go function as a callable value. fn's args are valid
// only until it returns — a call from bytecode passes a view of the VM's
// value stack — so fn copies any part of them it keeps.
func NativeFunc(name string, fn func(in *Interp, this Value, args []Value) (Value, error)) Value {
	return ObjVal(&Object{Fn: &Function{Name: name, Native: fn}})
}

// envSmallMax is the inline-storage capacity of a scope frame. Most frames
// (function invokes, block scopes) hold a handful of variables; keeping them
// in parallel slices avoids a map allocation per frame on the interpreter's
// hottest path. Frames that outgrow it (the globals) promote to a map.
const envSmallMax = 16

// Env is a lexical scope frame. Storage starts as small parallel slices and
// promotes to a map past envSmallMax entries; lookup semantics are identical
// either way (variable shadowing is by frame, never by position).
type Env struct {
	names  []string
	vals   []Value
	vars   map[string]Value // non-nil once promoted
	parent *Env
}

// NewEnv returns a scope nested in parent (which may be nil for globals).
// The frame allocates no storage until its first Define.
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent}
}

// NewEnvCap is NewEnv with a compiler-supplied binding-count hint: the
// parallel slices are sized once up front instead of growing per Define.
func NewEnvCap(parent *Env, n int) *Env {
	if n <= 0 {
		return &Env{parent: parent}
	}
	if n > envSmallMax {
		n = envSmallMax // frame will promote to a map anyway
	}
	return &Env{parent: parent, names: make([]string, 0, n), vals: make([]Value, 0, n)}
}

// getLocal reads a variable from this frame only.
func (e *Env) getLocal(name string) (Value, bool) {
	if e.vars != nil {
		v, ok := e.vars[name]
		return v, ok
	}
	for i, n := range e.names {
		if n == name {
			return e.vals[i], true
		}
	}
	return Undefined, false
}

// setLocal overwrites a variable that exists in this frame. It reports
// whether the variable was present.
func (e *Env) setLocal(name string, v Value) bool {
	if e.vars != nil {
		if _, ok := e.vars[name]; ok {
			e.vars[name] = v
			return true
		}
		return false
	}
	for i, n := range e.names {
		if n == name {
			e.vals[i] = v
			return true
		}
	}
	return false
}

// Lookup finds a variable, walking outward.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.getLocal(name); ok {
			return v, true
		}
	}
	return Undefined, false
}

// Define creates or overwrites a variable in this scope.
func (e *Env) Define(name string, v Value) {
	if e.setLocal(name, v) {
		return
	}
	if e.vars != nil {
		e.vars[name] = v
		return
	}
	if len(e.names) >= envSmallMax {
		e.vars = make(map[string]Value, len(e.names)+1)
		for i, n := range e.names {
			e.vars[n] = e.vals[i]
		}
		e.names, e.vals = nil, nil
		e.vars[name] = v
		return
	}
	e.names = append(e.names, name)
	e.vals = append(e.vals, v)
}

// Assign sets an existing variable in the nearest scope defining it; if none
// does, it defines a global (sloppy-mode JavaScript behaviour).
func (e *Env) Assign(name string, v Value) {
	for s := e; s != nil; s = s.parent {
		if s.setLocal(name, v) {
			return
		}
		if s.parent == nil {
			s.Define(name, v) // implicit global
			return
		}
	}
}

// TypeOf implements the typeof operator.
func TypeOf(v Value) string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.obj != nil && v.obj.Fn != nil {
			return "function"
		}
		return "object"
	}
}

// GoString renders a value for diagnostics (console.log formatting).
func GoString(v Value) string {
	switch v.kind {
	case KindString:
		return v.str
	case KindObject:
		o := v.obj
		if o.Fn != nil {
			return v.Text()
		}
		if o.IsArray {
			parts := make([]string, len(o.Elems))
			for i, e := range o.Elems {
				parts[i] = GoString(e)
			}
			return "[" + strings.Join(parts, ", ") + "]"
		}
		var parts []string
		for _, k := range o.Keys() {
			parts = append(parts, fmt.Sprintf("%s: %s", k, GoString(o.Get(k))))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return v.Text()
	}
}
