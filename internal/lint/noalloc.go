package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The noalloc check is the static complement of the AllocsPerRun gates:
// a function annotated //holistic:noalloc must not contain allocating
// constructs, and neither may anything it calls inside the module,
// unless the callee is an annotated //holistic:alloc-ok boundary.
//
// Flagged constructs: make, new, &T{...}, map and slice composite
// literals, append that is not the self-append idiom
// `x = append(x, ...)` (self-append is capacity-managed by the warm
// scratch discipline), go statements, fmt calls, non-constant string
// concatenation, string<->[]byte/[]rune conversions, and boxing
// conversions of non-pointer-shaped concrete values into interfaces
// (at conversions, call arguments, assignments and returns).
//
// Deliberate exemptions, chosen so the real hot paths verify without
// suppressions: panic(...) argument subtrees are skipped (a terminal
// path may format its death message); function literals are not flagged
// as allocations (the hot-path closures do not escape, so they are
// stack-allocated — their bodies are still checked); map index writes
// are allowed (bucket memory is retained across queries via clear);
// standard-library calls other than fmt are trusted; calls through
// interfaces and function values are trusted (documented limitation).

// naViol is one allocating construct found inside a function.
type naViol struct {
	pos token.Pos
	msg string
}

// runNoAlloc verifies every annotated function in the requested
// packages.
func runNoAlloc(ix *modIndex) []Diagnostic {
	v := &naVerifier{ix: ix, memo: make(map[*types.Func][]naViol)}
	var diags []Diagnostic
	for fn, fi := range ix.funcs {
		if !fi.noalloc || !ix.mod.isRequested(fi.pkg) {
			continue
		}
		for _, viol := range v.check(fn) {
			diags = append(diags, Diagnostic{
				Pos:     ix.mod.Fset.Position(viol.pos),
				Check:   "noalloc",
				Message: fmt.Sprintf("in //holistic:noalloc function %s: %s", fn.Name(), viol.msg),
			})
		}
	}
	return diags
}

// naVerifier memoizes per-function verification across the module.
type naVerifier struct {
	ix   *modIndex
	memo map[*types.Func][]naViol
	// inProgress guards recursion: a cycle is treated as clean at the
	// back-edge; the violations of every function on it still surface
	// through its own entry.
	inProgress map[*types.Func]bool
}

// check returns the allocating constructs in fn's body, including
// call-site violations for calls into allocating unannotated module
// functions.
func (v *naVerifier) check(fn *types.Func) []naViol {
	if viols, ok := v.memo[fn]; ok {
		return viols
	}
	fi := v.ix.funcs[fn]
	if fi == nil || fi.decl.Body == nil || fi.allocOK {
		v.memo[fn] = nil
		return nil
	}
	if v.inProgress == nil {
		v.inProgress = make(map[*types.Func]bool)
	}
	if v.inProgress[fn] {
		return nil
	}
	v.inProgress[fn] = true
	defer delete(v.inProgress, fn)

	w := &naWalker{
		v:             v,
		pkg:           fi.pkg,
		sig:           fn.Type().(*types.Signature),
		allowedAppend: make(map[*ast.CallExpr]bool),
	}
	w.walk(fi.decl.Body)
	v.memo[fn] = w.viols
	return w.viols
}

// naWalker scans one function body (or function literal body, with the
// literal's signature for return checks).
type naWalker struct {
	v             *naVerifier
	pkg           *Package
	sig           *types.Signature
	viols         []naViol
	allowedAppend map[*ast.CallExpr]bool
}

func (w *naWalker) flag(pos token.Pos, format string, args ...any) {
	w.viols = append(w.viols, naViol{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (w *naWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, w.visit)
}

func (w *naWalker) visit(n ast.Node) bool {
	info := w.pkg.Info
	switch n := n.(type) {
	case *ast.FuncLit:
		// The literal itself is exempt; its body runs on the hot path
		// and is checked against the literal's own signature.
		sub := &naWalker{v: w.v, pkg: w.pkg, sig: info.TypeOf(n).(*types.Signature), allowedAppend: w.allowedAppend}
		sub.walk(n.Body)
		w.viols = append(w.viols, sub.viols...)
		return false
	case *ast.GoStmt:
		w.flag(n.Pos(), "starts a goroutine")
		return true
	case *ast.CompositeLit:
		switch info.TypeOf(n).Underlying().(type) {
		case *types.Map:
			w.flag(n.Pos(), "map literal allocates")
		case *types.Slice:
			w.flag(n.Pos(), "slice literal allocates")
		}
		return true
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
				w.flag(n.Pos(), "taking the address of a composite literal allocates")
			}
		}
		return true
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
				w.flag(n.Pos(), "string concatenation allocates")
			}
		}
		return true
	case *ast.AssignStmt:
		// Mark the self-append idiom before its call is visited.
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "append") && len(call.Args) > 0 {
				lhs := exprString(w.pkg.Fset, n.Lhs[0])
				dst := ast.Unparen(call.Args[0])
				if exprString(w.pkg.Fset, dst) == lhs {
					w.allowedAppend[call] = true
				} else if sl, ok := dst.(*ast.SliceExpr); ok && exprString(w.pkg.Fset, sl.X) == lhs {
					// x = append(x[:k], ...) reslices the same backing
					// array; still the capacity-managed idiom.
					w.allowedAppend[call] = true
				}
			}
		}
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				w.checkBox(n.Rhs[i], info.TypeOf(n.Lhs[i]))
			}
		}
		return true
	case *ast.ValueSpec:
		if n.Type != nil {
			dst := info.TypeOf(n.Type)
			for _, val := range n.Values {
				w.checkBox(val, dst)
			}
		}
		return true
	case *ast.ReturnStmt:
		res := w.sig.Results()
		if len(n.Results) == res.Len() {
			for i, e := range n.Results {
				w.checkBox(e, res.At(i).Type())
			}
		}
		return true
	case *ast.CallExpr:
		return w.visitCall(n)
	}
	return true
}

// visitCall classifies one call; it reports whether to descend into the
// call's children.
func (w *naWalker) visitCall(call *ast.CallExpr) bool {
	info := w.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "panic":
				return false // terminal path; its message may allocate
			case "make":
				w.flag(call.Pos(), "make allocates")
			case "new":
				w.flag(call.Pos(), "new allocates")
			case "append":
				if !w.allowedAppend[call] {
					w.flag(call.Pos(), "append into a different destination may allocate (only the self-append idiom x = append(x, ...) is exempt)")
				}
			}
			return true
		}
	}
	// Conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		w.checkConversion(call, tv.Type, call.Args[0])
		return true
	}
	// Function or method call: check callee, then argument boxing. An
	// alloc-ok callee is a reviewed boundary — the boxing its interface
	// parameters cause (errf's variadic, typically) is part of what the
	// annotation's reason covers, so its arguments are not checked. A
	// fmt call likewise reports once, without per-argument boxing noise.
	if callee, dynamic, ok := calleeFunc(info, call); ok && !dynamic {
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			w.flag(call.Pos(), "calls fmt.%s, which allocates", callee.Name())
			return true
		}
		w.checkCallee(call, callee)
		if fi := w.v.ix.funcs[callee]; fi != nil && fi.allocOK {
			return true
		}
	}
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		w.checkArgs(call, sig)
	}
	return true
}

// checkCallee applies the module call policy: stdlib (fmt aside,
// handled by the caller) is trusted, module callees verify transitively
// unless alloc-ok.
func (w *naWalker) checkCallee(call *ast.CallExpr, callee *types.Func) {
	fi := w.v.ix.funcs[callee]
	if fi == nil || fi.allocOK {
		return
	}
	viols := w.v.check(callee)
	if len(viols) == 0 {
		return
	}
	// An annotated callee in a linted package reports on itself; an
	// unannotated (or out-of-scope) one is reported at this call site.
	if fi.noalloc && w.v.ix.mod.isRequested(fi.pkg) {
		return
	}
	first := viols[0]
	w.flag(call.Pos(), "calls %s, which allocates: %s (at %s)",
		callee.Name(), first.msg, w.pkg.Fset.Position(first.pos))
}

// checkConversion flags string<->byte-slice conversions and boxing
// conversions to interface types.
func (w *naWalker) checkConversion(call *ast.CallExpr, dst types.Type, arg ast.Expr) {
	src := w.pkg.Info.TypeOf(arg)
	if src == nil {
		return
	}
	switch {
	case isString(dst) && isSlice(src):
		w.flag(call.Pos(), "slice-to-string conversion allocates")
	case isSlice(dst) && isString(src):
		w.flag(call.Pos(), "string-to-slice conversion allocates")
	default:
		w.checkBox(arg, dst)
	}
}

// checkArgs flags boxing at call arguments whose parameter type is an
// interface.
func (w *naWalker) checkArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		w.checkBox(arg, pt)
	}
}

// checkBox flags expr when assigning it to dst boxes a non-pointer-
// shaped concrete value into an interface.
func (w *naWalker) checkBox(expr ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	if _, isParam := types.Unalias(dst).(*types.TypeParam); isParam {
		return // a type parameter's underlying type is its constraint; it is instantiated concrete
	}
	tv, ok := w.pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if types.IsInterface(src.Underlying()) {
		return // interface-to-interface carries the existing box
	}
	if b, isBasic := src.Underlying().(*types.Basic); isBasic && b.Info()&types.IsUntyped != 0 {
		return // untyped nil / constants resolved elsewhere
	}
	if pointerShaped(src) {
		return // direct-interface representation, no allocation
	}
	w.flag(expr.Pos(), "boxing %s into %s allocates", src.String(), dst.String())
}

// pointerShaped reports whether values of t fit an interface word
// directly (the runtime's direct-interface representation).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		// A one-field struct wrapping a pointer-shaped value is itself
		// direct (e.g. struct{ p *T }).
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
