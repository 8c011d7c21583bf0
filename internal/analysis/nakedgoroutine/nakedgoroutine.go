// Package nakedgoroutine requires every `go` statement outside the
// scheduler package (internal/sched, whose worker pool is the mapping
// engine's goroutine lifecycle management) to be tied to a completion
// mechanism: a sync.WaitGroup, a context.Context, or a channel the
// goroutine signals.
// A goroutine with none of these cannot be joined or cancelled — it leaks by
// construction, and under the autotuner's scheduler × batch × cache sweeps a
// leaked worker from one configuration silently perturbs the next.
//
// For `go func() {...}()` the literal body must call (*sync.WaitGroup).Done,
// reference a context.Context, or send on / close a channel. For a named
// function, one of its arguments must be a *sync.WaitGroup, context.Context,
// or channel. Intentional fire-and-forget goroutines can be annotated with
// `//vetgiraffe:ignore nakedgoroutine <reason>`.
package nakedgoroutine

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Exempt lists packages whose job is goroutine lifecycle management; their
// `go` statements are the synchronization primitives the rest of the tree
// is required to use.
var Exempt = map[string]bool{
	"repro/internal/sched": true,
}

// Analyzer is the nakedgoroutine check.
var Analyzer = &analysis.Analyzer{
	Name: "nakedgoroutine",
	Doc: "report go statements not tied to a WaitGroup, context, or " +
		"channel (outside internal/sched)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if Exempt[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !tied(pass, g) {
				pass.Reportf(g.Pos(),
					"goroutine is not tied to a WaitGroup, context, or channel and can leak by construction")
			}
			return true
		})
	}
	return nil
}

// tied reports whether the spawned goroutine has a visible completion or
// cancellation mechanism.
func tied(pass *analysis.Pass, g *ast.GoStmt) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return litTied(pass, lit)
	}
	// Named function (or method value): accept when it receives a
	// synchronization handle as an argument.
	for _, arg := range g.Call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && syncHandle(tv.Type) {
			return true
		}
	}
	return false
}

// litTied inspects a goroutine literal's body for a completion mechanism.
func litTied(pass *analysis.Pass, lit *ast.FuncLit) (ok bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			ok = true // completion signalled over a channel
		case *ast.CallExpr:
			if id, isIdent := s.Fun.(*ast.Ident); isIdent && id.Name == "close" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					ok = true
					return false
				}
			}
			if sel, isSel := s.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Done" {
				if fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFn {
					if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil &&
						isWaitGroup(sig.Recv().Type()) {
						ok = true
						return false
					}
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[s]; obj != nil && isContext(obj.Type()) {
				ok = true
				return false
			}
		}
		return true
	})
	return ok
}

// syncHandle reports whether t is a synchronization handle type: a
// *sync.WaitGroup, a context.Context, or a channel.
func syncHandle(t types.Type) bool {
	if isWaitGroup(t) || isContext(t) {
		return true
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamed(t, "sync", "WaitGroup")
}

func isContext(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

func isNamed(t types.Type, pkg, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}
