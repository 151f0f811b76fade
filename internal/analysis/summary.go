package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// summary.go builds the per-package fact summaries the module-level
// analyzers (hotpath, unreached, atomicpub's ownership rule)
// consume. A summary is self-contained — plain strings and positions, no
// go/types objects — so the module phase needs nothing of the
// type-checker's state.

// PkgSummary is the module-analysis fact base extracted from one
// type-checked package.
type PkgSummary struct {
	Funcs   []FuncSum
	Methods []MethodSum
	// Entry marks a main package or the module's root package: the
	// unreached check reports nothing for a module without one.
	Entry bool
	// StdIface lists the methods of the exported interfaces of the
	// package's non-module imports, plus error's: the standard library
	// may call any module method that matches one (fmt.Stringer,
	// sort.Interface, types.Importer, rand.Source64).
	StdIface []DynCall
}

// FuncSum summarizes one function or method body.
type FuncSum struct {
	// ID is the stable identity used for call-graph edges:
	// types.Func.FullName(), e.g. "caribou/internal/solver.assignKey" or
	// "(*caribou/internal/solver.search).solveHBSS".
	ID string
	// Name is the short display form used in printed call chains, e.g.
	// "Solve" or "(*search).solveHBSS".
	Name string
	// Root marks an entry point of the unreached check: main and init
	// of a main package, any init, a package initializer, or exported
	// API of the module's root package.
	Root bool
	File string
	Line int
	Col  int

	// Calls lists the module functions this body references — calls and
	// bare function-value references alike (a reference can be invoked
	// later, so treating it as an edge is the conservative choice).
	Calls []string
	// Dyn lists interface-method call sites; the module phase resolves
	// each against every module method with the same name and signature.
	Dyn []DynCall
	// LoopCalls and LoopDyn are the entries of Calls and Dyn made inside
	// a loop of the body.
	LoopCalls []string
	LoopDyn   []DynCall
	// HotRoot marks a function whose doc comment carries //caribou:hot:
	// its loop bodies are hot (hotpath).
	HotRoot bool
	// Sites lists the body's allocation candidates hotpath reports when
	// they sit in a hot region.
	Sites []HotSite

	// OwnedRecv marks methods of a tenant-owned type (atomicpub): the
	// owned type's key, e.g. "caribou/internal/controlplane.Tenant".
	OwnedRecv string
	// Ctor marks the owned type's constructor (newT/NewT returning it);
	// constructors may mutate freely — the value is not shared yet.
	Ctor string
	// OwnedWrites lists direct field writes to tenant-owned state.
	OwnedWrites []OwnedWrite
	// ReadsOwned marks a method of a tenant-owned type that reads a field
	// of its own type whose type is not from sync/atomic: such a read is
	// ordered against the writers only under the tenant's lock.
	ReadsOwned bool
	// OwnedCalls lists calls of tenant-owned types' methods, with the
	// syntactic submit context (closure passed to submit).
	OwnedCalls []OwnedCall
}

// DynCall is one interface-dispatch call site: method name plus the
// receiver-stripped signature string.
type DynCall struct {
	Method string
	Sig    string
}

// MethodSum is one concrete method in a named type's method set, indexed
// by the module phase to resolve DynCalls.
type MethodSum struct {
	Method string
	Sig    string
	FuncID string
}

// HotSite is one allocation candidate: what allocates and how to avoid
// it, and whether it sits inside a loop of its function.
type HotSite struct {
	Msg    string
	InLoop bool
	File   string
	Line   int
	Col    int
}

// OwnedWrite is one direct field write to a tenant-owned type.
type OwnedWrite struct {
	Type      string // owned type key
	Expr      string // e.g. "Tenant.versions"
	ViaSubmit bool
	File      string
	Line      int
	Col       int
}

// OwnedCall is one call of a tenant-owned type's method.
type OwnedCall struct {
	Type      string
	Method    string
	ViaSubmit bool // lexically inside a closure passed to submit
	File      string
	Line      int
	Col       int
}

// tenantOwnedTypes registers the control-plane state that only a job
// holding the tenant's lock may touch (DESIGN.md "Control plane"): jobs
// are the closures passed to submit, so writes, and calls of methods that
// write or read its non-atomic fields, outside a submit closure are
// atomicpub findings.
var tenantOwnedTypes = map[string]bool{
	"caribou/internal/controlplane.Tenant": true,
}

// BuildSummary extracts the module-analysis facts from one type-checked
// package. Traversal follows declaration order file by file, so the
// summary — and everything derived from it — is deterministic.
func BuildSummary(pkg *Package) *PkgSummary {
	modPath := modulePrefix(pkg.Path)
	sum := &PkgSummary{
		Entry:    pkg.Types.Name() == "main" || pkg.Path == modPath,
		StdIface: []DynCall{{Method: "Error", Sig: "()(string)"}},
	}
	for _, imp := range pkg.Types.Imports() {
		if pathIn(imp.Path(), modPath) {
			continue
		}
		for _, name := range imp.Scope().Names() {
			tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !types.IsInterface(tn.Type()) {
				continue
			}
			iface := tn.Type().Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				sum.StdIface = append(sum.StdIface, DynCall{Method: m.Name(), Sig: sigString(m.Type().(*types.Signature))})
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				sum.Funcs = append(sum.Funcs, buildFuncSum(pkg, modPath, d))
				if d.Recv != nil {
					if ms, ok := buildMethodSum(pkg, d); ok {
						sum.Methods = append(sum.Methods, ms)
					}
				}
			case *ast.GenDecl:
				if fs, ok := buildVarInitSum(pkg, modPath, d); ok {
					sum.Funcs = append(sum.Funcs, fs)
				}
			}
		}
	}
	return sum
}

// modulePrefix derives the module root segment from an import path:
// everything up to the first slash ("caribou/internal/solver" →
// "caribou"). Functions from packages under the same root are module
// functions; everything else is assumed stdlib.
func modulePrefix(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// funcID returns the stable cross-package identity of fn.
func funcID(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// sigString renders a signature without its receiver, qualifying named
// types by full package path so the string is position-independent.
func sigString(sig *types.Signature) string {
	q := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), q))
	}
	b.WriteByte(')')
	b.WriteByte('(')
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), q))
	}
	b.WriteByte(')')
	return b.String()
}

// displayName renders the short form of a declared function for chains.
func displayName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	base, ptr := recvBase(recv)
	if base == "" {
		return d.Name.Name
	}
	if ptr {
		return "(*" + base + ")." + d.Name.Name
	}
	return "(" + base + ")." + d.Name.Name
}

// recvBase extracts the receiver's base type name and pointer-ness.
func recvBase(expr ast.Expr) (string, bool) {
	ptr := false
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			ptr = true
			expr = e.X
		case *ast.IndexExpr: // generic receiver T[P]
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name, ptr
		default:
			return "", ptr
		}
	}
}

// exportedFunc reports whether d is part of the package's exported
// surface: exported name, and for methods an exported receiver base type.
func exportedFunc(d *ast.FuncDecl) bool {
	if !d.Name.IsExported() {
		return false
	}
	if d.Recv != nil && len(d.Recv.List) > 0 {
		base, _ := recvBase(d.Recv.List[0].Type)
		if base != "" && !ast.IsExported(base) {
			return false
		}
	}
	return true
}

// buildMethodSum indexes one concrete method declaration for interface
// dispatch resolution.
func buildMethodSum(pkg *Package, d *ast.FuncDecl) (MethodSum, bool) {
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return MethodSum{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return MethodSum{}, false
	}
	return MethodSum{Method: fn.Name(), Sig: sigString(sig), FuncID: funcID(fn)}, true
}

// buildFuncSum summarizes one function declaration.
func buildFuncSum(pkg *Package, modPath string, d *ast.FuncDecl) FuncSum {
	pos := pkg.Fset.Position(d.Name.Pos())
	fs := FuncSum{
		Name:    displayName(d),
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		HotRoot: isHotRoot(d.Doc),
	}
	if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
		fs.ID = funcID(fn)
	} else {
		fs.ID = pkg.Path + "." + d.Name.Name
	}
	if d.Recv == nil && d.Name.Name == "init" {
		fs.ID += fmt.Sprintf(":%s:%d", filepath.Base(pos.Filename), pos.Line) // a package may declare several
	}
	fs.Root = d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") ||
		pkg.Path == modPath && exportedFunc(d)
	if owned, ctor := ownedCtor(pkg, d); ctor {
		fs.Ctor = owned
	}
	if d.Recv != nil && len(d.Recv.List) > 0 {
		if key := ownedTypeKey(pkg.Info.TypeOf(d.Recv.List[0].Type)); key != "" {
			fs.OwnedRecv = key
		}
	}
	if d.Body != nil {
		summarizeBody(pkg, modPath, d.Body, &fs)
	}
	return fs
}

// buildVarInitSum attributes package-level variable initializers to a
// synthetic "<pkg>.init" root node, so what an initializer calls is
// reached and its owned-state writes are checked (the initializer runs
// in every importer's process).
func buildVarInitSum(pkg *Package, modPath string, d *ast.GenDecl) (FuncSum, bool) {
	if d.Tok != token.VAR {
		return FuncSum{}, false
	}
	pos := pkg.Fset.Position(d.Pos())
	fs := FuncSum{
		ID:   fmt.Sprintf("%s.init:%s:%d", pkg.Path, filepath.Base(pos.Filename), pos.Line),
		Name: "package initializer",
		Root: true,
		File: pos.Filename,
		Line: pos.Line,
		Col:  pos.Column,
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			summarizeBody(pkg, modPath, v, &fs)
		}
	}
	if len(fs.Calls) == 0 && len(fs.Dyn) == 0 &&
		len(fs.OwnedWrites) == 0 && len(fs.OwnedCalls) == 0 {
		return FuncSum{}, false
	}
	return fs, true
}

// summarizeBody walks one body (or initializer expression) collecting
// call edges, allocation sites and owned-state facts into fs.
func summarizeBody(pkg *Package, modPath string, body ast.Node, fs *FuncSum) {
	info := pkg.Info
	calls, loopCalls := map[string]bool{}, map[string]bool{}
	loops := loopRanges(body)
	inLoop := func(pos token.Pos) bool {
		_, ok := innermostLoop(loops, pos)
		return ok
	}
	hotSites(pkg, body, loops, fs)
	submitRanges := submitClosureRanges(info, body)
	inSubmit := func(pos token.Pos) bool {
		for _, r := range submitRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			fn, ok := info.Uses[e].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == modPath || strings.HasPrefix(fn.Pkg().Path(), modPath+"/") {
				calls[funcID(fn)] = true
				if inLoop(e.Pos()) {
					loopCalls[funcID(fn)] = true
				}
			}
		case *ast.CallExpr:
			summarizeCall(pkg, e, fs, inSubmit, inLoop)
		case *ast.SelectorExpr:
			if fs.OwnedRecv != "" && readsNonAtomicField(info, e, fs.OwnedRecv) {
				fs.ReadsOwned = true
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				recordOwnedWrite(pkg, lhs, fs, inSubmit)
			}
		case *ast.IncDecStmt:
			recordOwnedWrite(pkg, e.X, fs, inSubmit)
		}
		return true
	})
	for id := range calls {
		fs.Calls = append(fs.Calls, id)
	}
	for id := range loopCalls {
		fs.LoopCalls = append(fs.LoopCalls, id)
	}
	sort.Strings(fs.Calls)
	sort.Strings(fs.LoopCalls)
}

// summarizeCall records dynamic-dispatch and owned-method call facts for
// one call expression.
func summarizeCall(pkg *Package, call *ast.CallExpr, fs *FuncSum, inSubmit, inLoop func(token.Pos) bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if types.IsInterface(sig.Recv().Type()) {
		d := DynCall{Method: fn.Name(), Sig: sigString(sig)}
		fs.Dyn = append(fs.Dyn, d)
		if inLoop(call.Pos()) {
			fs.LoopDyn = append(fs.LoopDyn, d)
		}
		return
	}
	if key := ownedTypeKey(sig.Recv().Type()); key != "" {
		p := pkg.Fset.Position(call.Pos())
		fs.OwnedCalls = append(fs.OwnedCalls, OwnedCall{
			Type: key, Method: fn.Name(), ViaSubmit: inSubmit(call.Pos()),
			File: p.Filename, Line: p.Line, Col: p.Column,
		})
	}
}

// recordOwnedWrite records a direct field write to a tenant-owned type:
// the written expression's root is a selector whose receiver (after
// pointer unwrap) is an owned type.
func recordOwnedWrite(pkg *Package, lhs ast.Expr, fs *FuncSum, inSubmit func(token.Pos) bool) {
	// Unwrap index/star layers: t.field[i] = v and *t.ptrField = v both
	// mutate owned state.
	expr := ast.Unparen(lhs)
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = ast.Unparen(e.X)
			continue
		case *ast.StarExpr:
			expr = ast.Unparen(e.X)
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := ownedTypeKey(pkg.Info.TypeOf(sel.X))
	if key == "" {
		return
	}
	p := pkg.Fset.Position(lhs.Pos())
	short := key[strings.LastIndexByte(key, '.')+1:]
	fs.OwnedWrites = append(fs.OwnedWrites, OwnedWrite{
		Type: key, Expr: short + "." + sel.Sel.Name, ViaSubmit: inSubmit(lhs.Pos()),
		File: p.Filename, Line: p.Line, Col: p.Column,
	})
}

// readsNonAtomicField reports whether sel selects a field of owned type
// key whose type does not come from sync/atomic.
func readsNonAtomicField(info *types.Info, sel *ast.SelectorExpr, key string) bool {
	field, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() || ownedTypeKey(info.TypeOf(sel.X)) != key {
		return false
	}
	named, ok := field.Type().(*types.Named)
	return !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic"
}

// ownedTypeKey resolves t (possibly a pointer) to a registered
// tenant-owned type key, or "".
func ownedTypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if !tenantOwnedTypes[key] {
		return ""
	}
	return key
}

// ownedCtor reports whether d constructs a tenant-owned type: a
// new*/New*-named function whose results include the owned type. The
// constructor owns the value exclusively until it returns, so its
// mutations are exempt from the submit rule.
func ownedCtor(pkg *Package, d *ast.FuncDecl) (string, bool) {
	if d.Recv != nil || d.Type.Results == nil {
		return "", false
	}
	if !strings.HasPrefix(d.Name.Name, "new") && !strings.HasPrefix(d.Name.Name, "New") {
		return "", false
	}
	for _, r := range d.Type.Results.List {
		if key := ownedTypeKey(pkg.Info.TypeOf(r.Type)); key != "" {
			return key, true
		}
	}
	return "", false
}

// submitClosureRanges finds the source ranges of function literals passed
// directly to a submit call — the syntactic marker that the closure body
// runs as a job, under the tenant's lock.
func submitClosureRanges(info *types.Info, body ast.Node) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "submit" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				ranges = append(ranges, [2]token.Pos{lit.Pos(), lit.End()})
			}
		}
		return true
	})
	return ranges
}
