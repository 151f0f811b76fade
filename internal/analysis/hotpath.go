package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// hotDirective marks a hot root: a doc-comment line of a function whose
// loop bodies run per sample, per candidate plan or per record.
const hotDirective = "//caribou:hot"

// HotPathAnalyzer guards the per-iteration paths the repo profiled down
// to zero-allocation loops (DESIGN.md "Static analysis"). "Hot" has
// one definition: the loop bodies of a function whose doc comment carries
// //caribou:hot, and the whole body of every function called or
// referenced from a hot region, transitively over the module call graph
// (callgraph.go). In a hot region it flags the regressions that creep
// back in — fmt calls, closure literals, values boxed into interface
// parameters, string concatenation, and (inside a loop) appends that
// regrow a buffer every round — and names the chain from the root. Error
// construction is exempt: fmt.Errorf and the arguments of panic fire
// once and unwind.
var HotPathAnalyzer = &Analyzer{
	Name:      "hotpath",
	Doc:       "flag fmt calls, closures, interface boxing, string concatenation and grow-in-loop appends in the loops of //caribou:hot functions and in everything those loops call",
	RunModule: runHotPath,
}

func runHotPath(mp *ModulePass) {
	g := buildCallGraph(mp.Units)
	// hot marks per-iteration functions, whose whole body is hot. FIFO
	// over declaration-ordered roots and sorted callee lists makes every
	// recorded chain deterministic (and a shortest one).
	hot := map[string]bool{}
	var queue []string
	reach := func(from string, ids []string) {
		for _, id := range ids {
			if n, ok := g.nodes[id]; ok && !hot[id] {
				hot[id] = true
				n.via = from
				queue = append(queue, id)
			}
		}
	}
	for _, id := range g.order {
		if f := g.nodes[id].fun; f.HotRoot {
			reach(id, append(slices.Clone(f.LoopCalls), g.dispatch(f.LoopDyn)...))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		reach(id, g.nodes[id].callees)
	}
	for _, id := range g.order {
		n := g.nodes[id]
		if !hot[id] && !n.fun.HotRoot {
			continue
		}
		for _, s := range n.fun.Sites {
			if hot[id] || s.InLoop {
				mp.Reportf(token.Position{Filename: s.File, Line: s.Line, Column: s.Col},
					"hot path %s: %s", hotChain(g, id), s.Msg)
			}
		}
	}
}

// hotChain names the path from the nearest root down to id.
func hotChain(g *callGraph, id string) string {
	var chain []string
	for n := g.nodes[id]; ; n = g.nodes[n.via] {
		chain = append(chain, n.fun.Name)
		if n.fun.HotRoot || n.via == "" {
			slices.Reverse(chain)
			return strings.Join(chain, " -> ")
		}
	}
}

// isHotRoot reports whether a doc comment carries the hot directive.
func isHotRoot(doc *ast.CommentGroup) bool {
	return doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool {
		return strings.TrimSpace(c.Text) == hotDirective
	})
}

// loopRanges returns the per-iteration source ranges of body's loops, in
// preorder: a for statement after its init, a range statement's body. The
// init and the range expression run once, so they are outside.
func loopRanges(body ast.Node) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			start := l.Pos()
			if l.Init != nil {
				start = l.Init.End()
			}
			out = append(out, [2]token.Pos{start, l.End()})
		case *ast.RangeStmt:
			out = append(out, [2]token.Pos{l.Body.Pos(), l.End()})
		}
		return true
	})
	return out
}

// innermostLoop returns the innermost of loops (loopRanges) holding pos.
func innermostLoop(loops [][2]token.Pos, pos token.Pos) ([2]token.Pos, bool) {
	for i := len(loops) - 1; i >= 0; i-- {
		if pos >= loops[i][0] && pos < loops[i][1] {
			return loops[i], true
		}
	}
	return [2]token.Pos{}, false
}

// hotSites records body's allocation candidates into fs.Sites, each with
// whether it sits in one of loops.
func hotSites(pkg *Package, body ast.Node, loops [][2]token.Pos, fs *FuncSum) {
	info := pkg.Info
	// inits maps the locals declared so far to their initializers (nil
	// for `var x T`); a local is declared before any append to it.
	inits := map[types.Object]ast.Expr{}
	// exemptEnd ends the error construction being walked; concatEnd the
	// reported concatenation chain, whose inner + are the same string.
	// Inspect is preorder, so the outer call or + is seen first.
	var exemptEnd, concatEnd token.Pos
	add := func(pos token.Pos, format string, args ...any) {
		if pos < exemptEnd {
			return
		}
		_, inLoop := innermostLoop(loops, pos)
		p := pkg.Fset.Position(pos)
		fs.Sites = append(fs.Sites, HotSite{Msg: fmt.Sprintf(format, args...), InLoop: inLoop, File: p.Filename, Line: p.Line, Col: p.Column})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.ValueSpec:
			for i, name := range e.Names {
				inits[info.Defs[name]] = nil
				if i < len(e.Values) {
					inits[info.Defs[name]] = e.Values[i]
				}
			}
		case *ast.FuncLit:
			add(e.Pos(), "closure literal allocates per iteration: hoist it out of the hot path")
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			isFmt := fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
			switch {
			case e.Pos() < exemptEnd:
			case isFmt && fn.Name() == "Errorf" || isBuiltin(info, e, "panic"):
				exemptEnd = e.End()
			case isFmt:
				add(e.Pos(), "fmt.%s call parses its format per iteration: build output with strconv/append outside the loop", fn.Name())
			default:
				for _, arg := range boxedArgs(info, e) {
					add(arg.Pos(), "%s boxed into interface parameter allocates per iteration: keep the hot path monomorphic", types.TypeString(info.TypeOf(arg), types.RelativeTo(pkg.Types)))
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && e.Pos() >= concatEnd && isString(info.TypeOf(e)) && info.Types[e].Value == nil {
				concatEnd = e.End()
				add(e.Pos(), "string concatenation allocates per iteration: hoist it or use strconv.Append* into a reused buffer")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && isString(info.TypeOf(e.Lhs[0])) {
				add(e.Pos(), "string += allocates per iteration: use strconv.Append* or strings.Builder outside the loop")
			}
			loop, inLoop := innermostLoop(loops, e.Pos())
			for i, lhs := range e.Lhs {
				id, ok := lhs.(*ast.Ident)
				switch {
				case !ok || len(e.Lhs) != len(e.Rhs):
				case e.Tok == token.DEFINE:
					inits[info.Defs[id]] = e.Rhs[i]
				case inLoop && grows(info, id, e.Rhs[i], loop, inits):
					add(e.Pos(), "append to %s grows in a hot loop without preallocation: size it with make(T, 0, cap) before the loop", id.Name)
				}
			}
		}
		return true
	})
}

// isBuiltin reports whether call invokes the predeclared function name.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name && info.Uses[id] == types.Universe.Lookup(name)
}

// isString reports whether t is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxedArgs returns the arguments of call that are boxed into an
// interface parameter and allocate doing it: not interfaces already,
// not untyped nil or constants, and not pointer-shaped (a pointer, map,
// chan or func is stored in the interface word itself).
func boxedArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil // conversion, not a call
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return nil
	}
	var out []ast.Expr
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
		switch u := at.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue
		case *types.Basic:
			if u.Info()&types.IsUntyped != 0 || u.Kind() == types.UnsafePointer {
				continue
			}
		}
		out = append(out, arg)
	}
	return out
}

// grows reports whether lhs = rhs appends to lhs, in loop, a slice
// declared outside it without preallocated capacity — the classic
// quadratic-regrowth regression. Resets through x[:0] and appends into
// buffers of unknown provenance (parameters, struct fields, slices
// produced by other calls) are deliberately not flagged.
func grows(info *types.Info, lhs *ast.Ident, rhs ast.Expr, loop [2]token.Pos, inits map[types.Object]ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !isBuiltin(info, call, "append") {
		return false
	}
	if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || first.Name != lhs.Name {
		return false // appending someone else's slice, or an x[:0] reset
	}
	obj := info.ObjectOf(lhs)
	if obj == nil || obj.Pos() >= loop[0] && obj.Pos() < loop[1] {
		return false // declared inside the loop: fresh each iteration
	}
	init, known := inits[obj]
	return known && !preallocated(init)
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
