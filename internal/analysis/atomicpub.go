package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicPubAnalyzer enforces the publish-then-never-mutate discipline the
// tape latches (PR 6) and the control plane (PR 8) depend on. Values
// published through atomic.Pointer.Store are read lock-free by other
// goroutines, so they must be write-complete at publish:
//
//   - the per-package pass simulates each function body in source order
//     and flags writes through a pointer after it was Stored, and any
//     mutation of a pointee obtained from Load — loaded snapshots are
//     shared and immutable; mutate-and-republish means build a fresh
//     value;
//   - the module pass enforces lock ownership: state registered in
//     tenantOwnedTypes (summary.go) may be written — directly or via a
//     mutating method — and read through a method that reads its
//     non-atomic fields only by the owned type's own methods, its
//     constructor, or code lexically inside a closure handed to submit,
//     which runs it under the tenant's lock.
//
// Both rules are intraprocedural per site: a pointer laundered through a
// helper's return value escapes the first rule, and indirect mutation
// through a field's own methods escapes the second (DESIGN.md records
// the caveats). The repo's discipline keeps publication sites local
// enough that this catches the regressions that matter.
var AtomicPubAnalyzer = &Analyzer{
	Name: "atomicpub",
	Doc:  "flag mutation of atomic.Pointer pointees after Store/Load and tenant-owned control-plane state touched outside a submit closure",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					checkAtomicBody(pass, fd.Body)
				}
			}
		}
	},
	RunModule: func(mp *ModulePass) {
		runTenantOwnership(mp)
	},
}

// checkAtomicBody walks one function body in source order, tracking
// which locals have been published (Store) or borrowed (Load), and flags
// later writes through them. Source order over-approximates execution
// order across branches, which is the conservative direction.
func checkAtomicBody(pass *Pass, body *ast.BlockStmt) {
	published := map[types.Object]bool{}
	loaded := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			switch atomicPtrMethod(pass.Info, e) {
			case "Store":
				if len(e.Args) == 1 {
					if obj := rootObj(pass.Info, e.Args[0]); obj != nil {
						published[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			// x := p.Load() borrows the published pointee.
			if e.Tok == token.DEFINE {
				for i, rhs := range e.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || atomicPtrMethod(pass.Info, call) != "Load" || i >= len(e.Lhs) {
						continue
					}
					if id, ok := e.Lhs[i].(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							loaded[obj] = true
						}
					}
				}
			}
			for _, lhs := range e.Lhs {
				checkPointeeWrite(pass, lhs, published, loaded)
			}
		case *ast.IncDecStmt:
			checkPointeeWrite(pass, e.X, published, loaded)
		}
		return true
	})
}

// checkPointeeWrite flags lhs if it writes through a published or loaded
// pointer. Rebinding the variable itself (plain `x = ...`) is not a
// pointee write and stays legal.
func checkPointeeWrite(pass *Pass, lhs ast.Expr, published, loaded map[types.Object]bool) {
	expr := ast.Unparen(lhs)
	through := false // crossed a selector/star/index: touching the pointee
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			expr, through = ast.Unparen(e.X), true
			continue
		case *ast.StarExpr:
			expr, through = ast.Unparen(e.X), true
			continue
		case *ast.IndexExpr:
			expr, through = ast.Unparen(e.X), true
			continue
		}
		break
	}
	id, ok := expr.(*ast.Ident)
	if !ok || !through {
		return
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	switch {
	case published[obj]:
		pass.Reportf(lhs.Pos(), "%s is mutated after being published via atomic.Pointer.Store: readers already share it; values must be write-complete at publish", id.Name)
	case loaded[obj]:
		pass.Reportf(lhs.Pos(), "%s was obtained from atomic.Pointer.Load and is shared with the publisher: treat it as immutable and Store a fresh value instead", id.Name)
	}
}

// atomicPtrMethod returns the method name if call invokes a method of
// sync/atomic.Pointer[T], else "".
func atomicPtrMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() != "sync/atomic" || named.Obj().Name() != "Pointer" {
		return ""
	}
	return fn.Name()
}

// rootObj resolves expr to the object of its root identifier, unwrapping
// unary & and parens: Store(snap) and Store(&local) both publish.
func rootObj(info *types.Info, expr ast.Expr) types.Object {
	expr = ast.Unparen(expr)
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
		expr = ast.Unparen(u.X)
	}
	if id, ok := expr.(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// runTenantOwnership is the module half: writes to tenant-owned state and
// calls of its mutating or reading methods are legal only from the owned
// type's own methods, its constructor, or inside a submit closure.
func runTenantOwnership(mp *ModulePass) {
	// A method is a mutator if it writes owned fields directly or calls
	// (on the same owned type) another mutator — computed to fixpoint so
	// wrappers like ForceCheck -> check -> publish are covered — and a
	// reader, the same way, if it reads a non-atomic owned field.
	type methodKey struct{ typ, name string }
	methods := map[methodKey]*FuncSum{}
	var keys []methodKey
	for _, u := range mp.Units {
		for i := range u.Summary.Funcs {
			f := &u.Summary.Funcs[i]
			if f.OwnedRecv == "" {
				continue
			}
			k := methodKey{f.OwnedRecv, methodName(f.Name)}
			if _, dup := methods[k]; !dup {
				methods[k] = f
				keys = append(keys, k)
			}
		}
	}
	fixpoint := func(direct func(*FuncSum) bool) map[methodKey]bool {
		set := map[methodKey]bool{}
		for changed := true; changed; {
			changed = false
			for _, k := range keys {
				if set[k] {
					continue
				}
				f := methods[k]
				in := direct(f)
				for _, c := range f.OwnedCalls {
					if c.Type == f.OwnedRecv && set[methodKey{c.Type, c.Method}] {
						in = true
					}
				}
				if in {
					set[k] = true
					changed = true
				}
			}
		}
		return set
	}
	mutator := fixpoint(func(f *FuncSum) bool { return len(f.OwnedWrites) > 0 })
	reader := fixpoint(func(f *FuncSum) bool { return f.ReadsOwned })

	short := func(key string) string { return key[strings.LastIndexByte(key, '.')+1:] }
	for _, u := range mp.Units {
		for i := range u.Summary.Funcs {
			f := &u.Summary.Funcs[i]
			for _, w := range f.OwnedWrites {
				if f.OwnedRecv == w.Type || f.Ctor == w.Type || w.ViaSubmit {
					continue
				}
				mp.Reportf(token.Position{Filename: w.File, Line: w.Line, Column: w.Col},
					"tenant-owned %s is written (%s) outside a submit closure: route the mutation through submit, which holds the tenant's lock", short(w.Type), w.Expr)
			}
			for _, c := range f.OwnedCalls {
				if f.OwnedRecv == c.Type || f.Ctor == c.Type || c.ViaSubmit {
					continue
				}
				pos := token.Position{Filename: c.File, Line: c.Line, Column: c.Col}
				switch k := (methodKey{c.Type, c.Method}); {
				case mutator[k]:
					mp.Reportf(pos, "mutator %s.%s of tenant-owned state is called outside a submit closure: route the call through submit, which holds the tenant's lock", short(c.Type), c.Method)
				case reader[k]:
					mp.Reportf(pos, "%s.%s reads non-atomic tenant-owned state outside a submit closure: a concurrent job may be writing it; capture the value inside the job", short(c.Type), c.Method)
				}
			}
		}
	}
}

// methodName extracts the bare method name from a display name like
// "(*Tenant).check".
func methodName(display string) string {
	return display[strings.LastIndexByte(display, '.')+1:]
}
