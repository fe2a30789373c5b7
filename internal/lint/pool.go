package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The pool check enforces the scratch-recycling discipline: every value
// obtained from a sync.Pool (directly via Get, or through a module
// borrow helper such as getScratch / GetBitmap) must reach a matching
// Put on every exit of the borrowing function, or be handed off through
// one of the recognized ownership transfers:
//
//   - returning the held value makes the function itself a borrow
//     helper — its callers inherit the obligation;
//   - storing the held value into a struct field that some module
//     releaser covers (e.g. runState.workers) transfers
//     ownership to that struct's release path.
//
// Returning a pooled value after it was already Put back — or under a
// deferred Put — is flagged as an escape: the caller would alias
// recycled memory. Helpers are discovered module-wide by a fixpoint
// over function summaries, so multi-hop repackagings (runInto calling
// getScratch) resolve without annotations.

// poolSummaries is the module-wide helper table.
type poolSummaries struct {
	// borrows: function → result index → pool description. The result
	// at that index is a pooled object the caller must release.
	borrows map[*types.Func]map[int]string
	// releases: function → parameter index → pool description. The
	// argument at that index is returned to its pool.
	releases map[*types.Func]map[int]string
	// releasedFields: struct fields that some releaser covers; stores
	// into them are ownership transfers, not escapes.
	releasedFields map[*types.Var]bool
}

// runPool runs the pool check over the requested packages.
func runPool(ix *modIndex) []Diagnostic {
	sums := buildPoolSummaries(ix)
	var diags []Diagnostic
	for _, pkg := range ix.mod.Requested {
		pc := &poolChecker{pkg: pkg, ix: ix, sums: sums, diags: &diags}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				pc.checkOne(fd)
			}
		}
	}
	return diags
}

// --- summary construction -------------------------------------------------

// buildPoolSummaries iterates summary extraction to a fixpoint so that
// helpers defined in terms of other helpers (putRunState releasing
// st.workers recursively, runInto returning getScratch results)
// resolve regardless of declaration order.
func buildPoolSummaries(ix *modIndex) *poolSummaries {
	sums := &poolSummaries{
		borrows:        make(map[*types.Func]map[int]string),
		releases:       make(map[*types.Func]map[int]string),
		releasedFields: make(map[*types.Var]bool),
	}
	for range 10 {
		if !summarizePass(ix, sums) {
			break
		}
	}
	return sums
}

// summarizePass extracts summaries from every module function once; it
// reports whether anything new was learned.
func summarizePass(ix *modIndex, sums *poolSummaries) (changed bool) {
	for fn, fi := range ix.funcs {
		if fi.decl.Body == nil {
			continue
		}
		if summarizeFunc(fn, fi, sums) {
			changed = true
		}
	}
	return changed
}

func summarizeFunc(fn *types.Func, fi *funcInfo, sums *poolSummaries) (changed bool) {
	info := fi.pkg.Info
	sig := fn.Type().(*types.Signature)
	paramIdx := make(map[types.Object]int)
	for i := range sig.Params().Len() {
		paramIdx[sig.Params().At(i)] = i
	}
	// tainted maps local objects known to hold a pooled value to the
	// pool description; flow-insensitive, visited in source order.
	tainted := make(map[types.Object]string)

	learnBorrow := func(idx int, pool string) {
		m := sums.borrows[fn]
		if m == nil {
			m = make(map[int]string)
			sums.borrows[fn] = m
		}
		if _, ok := m[idx]; !ok {
			m[idx] = pool
			changed = true
		}
	}
	learnRelease := func(idx int, pool string) {
		m := sums.releases[fn]
		if m == nil {
			m = make(map[int]string)
			sums.releases[fn] = m
		}
		if _, ok := m[idx]; !ok {
			m[idx] = pool
			changed = true
		}
	}
	learnField := func(v *types.Var) {
		if v != nil && !sums.releasedFields[v] {
			sums.releasedFields[v] = true
			changed = true
		}
	}
	releaseArg := func(arg ast.Expr, pool string) {
		if obj := coreObject(info, arg); obj != nil {
			if i, ok := paramIdx[obj]; ok {
				learnRelease(i, pool)
			}
		}
		learnField(fieldVarOf(info, arg))
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Borrow propagation: x := pool.Get().(T), x := helper().
			if len(n.Rhs) == 1 {
				for idx, pool := range borrowSource(info, sums, n.Rhs[0]) {
					if idx < len(n.Lhs) {
						if obj := lhsObject(info, n.Lhs[idx]); obj != nil {
							if _, ok := tainted[obj]; !ok {
								tainted[obj] = pool
							}
						}
					}
				}
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if obj := coreObject(info, n.Rhs[i]); obj != nil {
						if pool, ok := tainted[obj]; ok {
							if lo := lhsObject(info, n.Lhs[i]); lo != nil {
								if _, dup := tainted[lo]; !dup {
									tainted[lo] = pool
								}
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if recv, name, ok := recvOfPoolMethod(info, n); ok && name == "Put" && len(n.Args) == 1 {
				releaseArg(n.Args[0], exprString(fi.pkg.Fset, recv))
			} else if callee, dynamic, ok := calleeFunc(info, n); ok && !dynamic {
				for pi, pool := range sums.releases[callee] {
					if pi < len(n.Args) {
						releaseArg(n.Args[pi], pool)
					}
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 1 {
				for idx, pool := range borrowSource(info, sums, n.Results[0]) {
					learnBorrow(idx, pool)
				}
			}
			for i, res := range n.Results {
				if obj := coreObject(info, res); obj != nil {
					if pool, ok := tainted[obj]; ok {
						learnBorrow(i, pool)
					}
				}
			}
		}
		return true
	})
	return changed
}

// borrowSource reports, for an expression, which of its value positions
// carry freshly borrowed pooled objects: pool.Get() calls (optionally
// through a type assertion) and calls to known borrow helpers.
func borrowSource(info *types.Info, sums *poolSummaries, e ast.Expr) map[int]string {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if recv, name, ok := recvOfPoolMethod(info, call); ok && name == "Get" {
		return map[int]string{0: exprString(token.NewFileSet(), recv)}
	}
	if callee, dynamic, ok := calleeFunc(info, call); ok && !dynamic {
		return sums.borrows[callee]
	}
	return nil
}

// coreObject strips value-preserving wrappers (parens, deref, address,
// slicing, indexing, type assertions, field selection) down to the base
// identifier's object: (*p)[:n], &sv, st.workers[i] all resolve to
// their base variable.
func coreObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// lhsObject resolves an assignment target identifier to its object.
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// fieldVarOf reports the struct field an expression reads through, if
// any: a.st and st.workers[i] both name a field.
func fieldVarOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
			e = x.X
		default:
			return nil
		}
	}
}

// recvOfPoolMethod reports whether call is sync.Pool.Get or
// sync.Pool.Put, returning the receiver expression and method name.
func recvOfPoolMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, "", false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed || named.Obj().Name() != "Pool" {
		return nil, "", false
	}
	if sel.Sel.Name == "Get" || sel.Sel.Name == "Put" {
		return sel.X, sel.Sel.Name, true
	}
	return nil, "", false
}

// --- per-function path check ----------------------------------------------

type poolChecker struct {
	pkg   *Package
	ix    *modIndex
	sums  *poolSummaries
	diags *[]Diagnostic

	// bindings maps local variables to the resource key of the pooled
	// object they hold; flow-insensitive per scope, like tainted above.
	bindings map[types.Object]string
	reported map[string]bool
}

func (pc *poolChecker) report(pos token.Pos, dedup, format string, args ...any) {
	if pc.reported[dedup] {
		return
	}
	pc.reported[dedup] = true
	*pc.diags = append(*pc.diags, Diagnostic{
		Pos:     pc.pkg.Fset.Position(pos),
		Check:   "pool",
		Message: fmt.Sprintf(format, args...),
	})
}

func (pc *poolChecker) checkOne(fd *ast.FuncDecl) {
	pc.bindings = make(map[types.Object]string)
	pc.reported = make(map[string]bool)
	hooks := &flowHooks{
		simple: pc.simple,
		ret:    pc.ret,
		cond:   func(ast.Expr, *flowState, *flowState) {},
		atEnd: func(st *flowState, pos token.Pos) {
			pc.checkExit(st, pos, "function end")
		},
		atBranch: pc.atBranch,
	}
	walkBody(fd.Body, hooks)
}

// resourceKey identifies an acquisition site.
func resourceKey(pos token.Pos) string { return fmt.Sprintf("res@%d", pos) }

// simple extracts pool events from one plain statement.
func (pc *poolChecker) simple(st *flowState, stmt ast.Stmt) {
	info := pc.pkg.Info
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if b := borrowSource(info, pc.sums, s.Rhs[0]); b != nil {
				for idx, pool := range b {
					if idx >= len(s.Lhs) {
						continue
					}
					pc.acquireInto(st, s.Lhs[idx], pool, s.Rhs[0].Pos())
				}
				return
			}
			// st.workers = append(st.workers, getRunState())
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "append") {
				for _, arg := range call.Args[1:] {
					if b := borrowSource(info, pc.sums, arg); b != nil {
						fv := fieldVarOf(info, s.Lhs[0])
						if fv == nil || !pc.sums.releasedFields[fv] {
							pc.report(arg.Pos(), fmt.Sprintf("appesc:%d", arg.Pos()),
								"pooled object is appended into %s, which no releaser covers",
								exprString(pc.pkg.Fset, s.Lhs[0]))
						}
					}
				}
			}
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				pc.assignPair(st, s.Lhs[i], s.Rhs[i])
			}
		}
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return
		}
		if b := borrowSource(info, pc.sums, call); b != nil {
			pc.report(call.Pos(), fmt.Sprintf("drop:%d", call.Pos()),
				"pooled object returned by this call is discarded; it can never be put back")
			return
		}
		pc.releaseCall(st, call, false)
	case *ast.DeferStmt:
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					pc.releaseCall(st, call, true)
				}
				return true
			})
			return
		}
		pc.releaseCall(st, s.Call, true)
	}
}

// acquireInto registers a fresh borrow being stored into target.
func (pc *poolChecker) acquireInto(st *flowState, target ast.Expr, pool string, pos token.Pos) {
	info := pc.pkg.Info
	if obj := lhsObject(info, target); obj != nil {
		key := resourceKey(pos)
		st.acquire(key, pool, pos)
		pc.bindings[obj] = key
		return
	}
	if id, ok := ast.Unparen(target).(*ast.Ident); ok && id.Name == "_" {
		pc.report(pos, fmt.Sprintf("blank:%d", pos),
			"pooled object from %s is assigned to _ and can never be put back", pool)
		return
	}
	// Stored somewhere non-local: fine when a releaser covers the
	// field, an escape otherwise.
	if fv := fieldVarOf(info, target); fv != nil {
		if !pc.sums.releasedFields[fv] {
			pc.report(pos, fmt.Sprintf("fieldesc:%d", pos),
				"pooled object from %s is stored into field %s, which no releaser covers",
				pool, fv.Name())
		}
		return
	}
}

// assignPair handles aliasing and escape-by-store for one lhs = rhs pair.
func (pc *poolChecker) assignPair(st *flowState, lhs, rhs ast.Expr) {
	info := pc.pkg.Info
	robj := coreObject(info, rhs)
	if robj == nil {
		return
	}
	key, bound := pc.bindings[robj]
	if !bound {
		return
	}
	// Copying a non-reference value out of the pooled object
	// (tr.Seq = sc.seq) aliases none of its storage: neither an alias
	// nor an ownership transfer, wherever it lands.
	if !refShaped(info.TypeOf(rhs)) {
		return
	}
	// Aliasing into a local: only reference-shaped values can alias the
	// pooled storage (sv = (*p)[:n]); copying a scalar field does not.
	if lo := lhsObject(info, lhs); lo != nil {
		if refShaped(info.TypeOf(lhs)) {
			if _, dup := pc.bindings[lo]; !dup {
				pc.bindings[lo] = key
			}
		}
		return
	}
	// Storing part of the pooled object back into itself
	// (p.lists = p.lists[:n]) rearranges, it does not escape.
	if lbase := coreObject(info, lhs); lbase != nil && pc.bindings[lbase] == key {
		return
	}
	// Store into a struct field: ownership transfer when covered.
	if fv := fieldVarOf(info, lhs); fv != nil {
		if info, held := st.release(key); held {
			if !pc.sums.releasedFields[fv] {
				pc.report(lhs.Pos(), fmt.Sprintf("store:%d", lhs.Pos()),
					"pooled object from %s escapes into field %s, which no releaser covers",
					info.kind, fv.Name())
			}
		}
	}
}

// refShaped reports whether values of t alias underlying storage.
func refShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// releaseCall applies Put / release-helper semantics of call to st.
func (pc *poolChecker) releaseCall(st *flowState, call *ast.CallExpr, isDefer bool) {
	info := pc.pkg.Info
	releaseArg := func(arg ast.Expr) {
		obj := coreObject(info, arg)
		if obj == nil {
			return
		}
		key, bound := pc.bindings[obj]
		if !bound {
			return
		}
		if isDefer {
			st.deferRelease(key, "Put")
			return
		}
		st.release(key)
	}
	if _, name, ok := recvOfPoolMethod(info, call); ok && name == "Put" && len(call.Args) == 1 {
		releaseArg(call.Args[0])
		return
	}
	if callee, dynamic, ok := calleeFunc(info, call); ok && !dynamic {
		for pi := range pc.sums.releases[callee] {
			if pi < len(call.Args) {
				releaseArg(call.Args[pi])
			}
		}
	}
}

// ret checks returned expressions: returning a held pooled object is an
// ownership transfer to the caller; returning one that was already
// released (or is about to be, by defer) aliases recycled memory.
func (pc *poolChecker) ret(st *flowState, s *ast.ReturnStmt) {
	info := pc.pkg.Info
	for _, res := range s.Results {
		obj := coreObject(info, res)
		if obj == nil {
			continue
		}
		key, bound := pc.bindings[obj]
		if !bound {
			continue
		}
		if _, held := st.held[key]; held {
			if _, def := st.deferred(key); def {
				pc.report(res.Pos(), fmt.Sprintf("retdefer:%d", res.Pos()),
					"pooled object is returned, but a deferred Put releases it first; the caller would alias recycled memory")
			}
			st.release(key) // ownership transfers to the caller
			continue
		}
		pc.report(res.Pos(), fmt.Sprintf("retafter:%d", res.Pos()),
			"pooled object is returned after it was already put back; the caller would alias recycled memory")
	}
	pc.checkExit(st, s.Pos(), "return")
}

// checkExit reports pooled objects definitely held at an exit with no
// deferred release.
func (pc *poolChecker) checkExit(st *flowState, pos token.Pos, what string) {
	for key, info := range st.held {
		if !info.definite {
			continue
		}
		if _, ok := st.deferred(key); ok {
			continue
		}
		pc.report(info.pos, fmt.Sprintf("leak:%s:%s", key, what),
			"pooled object from %s (Get at %s) is not returned to the pool on every path: leaks at %s",
			info.kind, pc.pkg.Fset.Position(info.pos), what)
	}
}

// atBranch flags continue statements that loop back while holding a
// pooled object acquired in this iteration.
func (pc *poolChecker) atBranch(st *flowState, stmt *ast.BranchStmt) {
	if stmt.Tok != token.CONTINUE {
		return
	}
	for key, info := range st.held {
		if !info.definite || info.depth < st.depth {
			continue
		}
		if _, ok := st.deferred(key); ok {
			continue
		}
		pc.report(stmt.Pos(), fmt.Sprintf("cont:%s:%d", key, stmt.Pos()),
			"pooled object from %s (Get at %s) is still held at continue; the next iteration borrows again without putting it back",
			info.kind, pc.pkg.Fset.Position(info.pos))
	}
}

// isBuiltin reports whether fun names the given builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}
