// Package hotalloc enforces the `//minigiraffe:hot` annotation: functions so
// marked are mapping-kernel inner loops (extend walks, cluster grouping, GBWT
// LF-search, core.Mapper dispatch) where per-record allocation or formatting
// work distorts exactly the measurements the proxy exists to produce.
//
// Inside a hot function the analyzer reports:
//
//   - any call into package fmt (formatting allocates and reflects);
//   - non-constant string concatenation (allocates per evaluation);
//   - map allocation — make(map...) or a map composite literal;
//   - append inside a loop whose destination was not preallocated in the
//     same function (unbounded growth reallocates mid-kernel). Preallocated
//     means a three-argument make, or a zero-length reslice of an existing
//     slice (x := sc.buf[:0]), which reuses that slice's capacity.
//
// Cold code is untouched: the annotation is the contract, placed next to the
// kernels in their doc comments.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// HotDirective marks a function as a hot path in its doc comment.
const HotDirective = "//minigiraffe:hot"

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "report fmt calls, string concatenation, map allocation, and " +
		"unpreallocated append growth inside //minigiraffe:hot functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHot(fn) {
				continue
			}
			checkHot(pass, fn)
		}
	}
	return nil
}

// isHot reports whether the function's doc comment carries the directive.
func isHot(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, HotDirective) {
			return true
		}
	}
	return false
}

type span struct{ lo, hi token.Pos }

func checkHot(pass *analysis.Pass, fn *ast.FuncDecl) {
	// Loop bodies, for the append rule.
	var loops []span
	// Objects preallocated in this function.
	prealloc := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{s.Body.Pos(), s.Body.End()})
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if preallocates(pass, rhs) {
					if obj := identObj(pass, id); obj != nil {
						prealloc[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range s.Values {
				if i >= len(s.Names) {
					break
				}
				if preallocates(pass, v) {
					if obj := identObj(pass, s.Names[i]); obj != nil {
						prealloc[obj] = true
					}
				}
			}
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if pos >= l.lo && pos < l.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if name, ok := fmtCallee(pass, e); ok {
				pass.Reportf(e.Pos(), "call to fmt.%s in hot function %s", name, fn.Name.Name)
				return true
			}
			if isBuiltin(pass, e, "make") && len(e.Args) > 0 {
				if tv, ok := pass.TypesInfo.Types[e.Args[0]]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(e.Pos(), "map allocation in hot function %s", fn.Name.Name)
					}
				}
			}
			if isBuiltin(pass, e, "append") && len(e.Args) > 0 && inLoop(e.Pos()) {
				dest, ok := e.Args[0].(*ast.Ident)
				if !ok {
					pass.Reportf(e.Pos(),
						"append to non-local destination inside a loop in hot function %s", fn.Name.Name)
					return true
				}
				if obj := identObj(pass, dest); obj == nil || !prealloc[obj] {
					pass.Reportf(e.Pos(),
						"append grows %s inside a loop in hot function %s without preallocated capacity (make with an explicit cap)",
						dest.Name, fn.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return true
			}
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value != nil {
				return true // constant-folded at compile time
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				pass.Reportf(e.Pos(), "string concatenation in hot function %s", fn.Name.Name)
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[e]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(e.Pos(), "map allocation in hot function %s", fn.Name.Name)
				}
			}
		}
		return true
	})
}

// preallocates reports whether e yields a slice with capacity set aside:
// make with an explicit cap, or a zero-length reslice (x[:0], x[0:0],
// x[:0:n]) that keeps x's capacity for reuse.
func preallocates(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return isBuiltin(pass, e, "make") && len(e.Args) == 3
	case *ast.SliceExpr:
		return e.High != nil && isZero(pass, e.High) && (e.Low == nil || isZero(pass, e.Low))
	}
	return false
}

// isZero reports whether e is the constant 0.
func isZero(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

// fmtCallee returns the function name if call targets package fmt.
func fmtCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	return fn.Name(), true
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
