package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// hotallocFiles pins the hand-optimized hot paths nothing guarded until
// now: the Monte Carlo tape/basis replay, sweep, rows and bounds loops and the
// solver's HBSS proposal loop. These files were profiled down to
// zero-allocation inner loops (see DESIGN.md); the analyzer keeps them
// that way by flagging the regressions that creep back in — fmt calls,
// per-iteration closures, interface boxing, and appends that regrow a
// buffer every round trip.
var hotallocFiles = map[string]map[string]bool{
	"caribou/internal/montecarlo": {
		"tape.go":   true,
		"basis.go":  true,
		"batch.go":  true,
		"rows.go":   true,
		"bounds.go": true,
	},
	"caribou/internal/solver": {
		"hbss.go": true,
	},
}

// HotAllocAnalyzer flags per-iteration allocation sources inside loops
// of the registered hot files. It is intentionally syntactic about what
// "hot" means — file granularity, every loop in the file — because the
// escape analysis needed to prove a specific loop cold is exactly the
// kind of cleverness that rots; moving genuinely cold code out of a hot
// file is cheap, and the sanctioned exceptions carry //caribou:allow.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag fmt calls, closures, interface boxing, and grow-in-loop appends in montecarlo replay/basis/batch/rows and solver HBSS hot paths",
	Run: func(pass *Pass) {
		files, ok := hotallocFiles[pass.PkgPath]
		if !ok {
			return
		}
		for _, f := range pass.Files {
			name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if !files[name] {
				continue
			}
			ha := &hotallocWalker{pass: pass, inits: collectInits(pass.Info, f)}
			ha.walk(f, nil)
		}
	},
}

// hotallocWalker walks one hot file tracking the innermost enclosing
// loop statement (nil at function scope).
type hotallocWalker struct {
	pass  *Pass
	inits map[types.Object]ast.Expr
}

func (w *hotallocWalker) walk(n ast.Node, loop ast.Node) {
	switch e := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		w.walkChildren(e, e)
		return
	case *ast.RangeStmt:
		w.walkChildren(e, e)
		return
	case *ast.FuncLit:
		if loop != nil {
			w.pass.Reportf(e.Pos(), "closure literal in a hot loop allocates per iteration: hoist it out of the loop")
		}
		// The literal's body still executes per iteration when it is in a
		// loop, so the enclosing-loop context carries through.
		w.walkChildren(e, loop)
		return
	case *ast.CallExpr:
		if loop != nil {
			w.checkCall(e)
		}
	case *ast.AssignStmt:
		if loop != nil {
			w.checkAppend(e, loop)
		}
	}
	w.walkChildren(n, loop)
}

func (w *hotallocWalker) walkChildren(n ast.Node, loop ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		w.walk(c, loop)
		return false
	})
}

// checkCall flags fmt calls and arguments boxed into interface
// parameters.
func (w *hotallocWalker) checkCall(call *ast.CallExpr) {
	info := w.pass.Info
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		w.pass.Reportf(call.Pos(), "fmt.%s call in a hot loop parses its format per iteration: build output with strconv/append outside the loop", fn.Name())
		return
	}
	if tv, ok := info.Types[call.Fun]; !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			continue // untyped nil / constants
		}
		w.pass.Reportf(arg.Pos(), "%s boxed into interface parameter in a hot loop allocates per iteration: keep the hot path monomorphic", types.TypeString(at, types.RelativeTo(w.pass.Pkg)))
	}
}

// checkAppend flags x = append(x, ...) in a loop when x is declared
// outside the loop without preallocated capacity — the classic
// quadratic-regrowth regression. Resets through x[:0] and appends into
// buffers of unknown provenance (parameters, struct fields, slices
// produced by other calls) are deliberately not flagged.
func (w *hotallocWalker) checkAppend(as *ast.AssignStmt, loop ast.Node) {
	info := w.pass.Info
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != nil && info.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			continue // appending someone else's slice, or an x[:0] reset
		}
		obj := info.ObjectOf(lhs)
		if obj == nil || obj.Pos() >= loop.Pos() && obj.Pos() < loop.End() {
			continue // declared inside the loop: fresh each iteration
		}
		init, known := w.inits[obj]
		if !known || preallocated(init) {
			continue
		}
		w.pass.Reportf(as.Pos(), "append to %s grows in a hot loop without preallocation: size it with make(T, 0, cap) before the loop", lhs.Name)
	}
}

// collectInits maps every locally declared object in f to its
// initializer expression (nil for `var x T` declarations without one).
func collectInits(info *types.Info, f *ast.File) map[types.Object]ast.Expr {
	inits := map[types.Object]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE || len(d.Lhs) != len(d.Rhs) {
				return true
			}
			for i, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						inits[obj] = d.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range d.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if i < len(d.Values) {
					inits[obj] = d.Values[i]
				} else {
					inits[obj] = nil
				}
			}
		}
		return true
	})
	return inits
}

// preallocated reports whether init visibly reserves capacity: a make
// call with an explicit capacity argument, or a composite literal with
// elements. A nil init (`var x []T`), an empty literal, and a
// capacity-less make all regrow from zero. Anything else — a call, a
// slice expression, a received parameter — is unknown provenance and
// treated as preallocated to stay conservative.
func preallocated(init ast.Expr) bool {
	switch e := ast.Unparen(init).(type) {
	case nil:
		return false
	case *ast.CompositeLit:
		return len(e.Elts) > 0
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "make" {
			return len(e.Args) >= 3
		}
		return true
	default:
		return true
	}
}
