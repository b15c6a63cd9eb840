package lint

import (
	"go/ast"
	"go/types"
)

// CtxProp guards the parallel pipeline's cancellation contract: the first
// failing run cancels every worker and RunGrid joins them all before
// returning. A context.Background() inside the fan-out detaches workers
// from that chain, so cancellation silently stops propagating.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc: `flags context.Background()/context.TODO() inside function
literals, inside functions that already take a context.Context, and inside
functions that launch goroutines — the places where a fresh root context
severs the caller's cancellation chain. Top-level entry points without a
ctx parameter (e.g. the sequential Run wrapper) stay free to mint one.
Scope: internal/experiment.`,
	Scope: scopeUnder("internal/experiment"),
	Run:   runCtxProp,
}

func runCtxProp(pass *Pass) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasCtx := hasContextParam(pass.Info, fd)
			launches := containsGoStmt(fd.Body)
			inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if fn.Name() != "Background" && fn.Name() != "TODO" {
					return true
				}
				_, inLiteral := enclosingFunc(stack).(*ast.FuncLit)
				switch {
				case inLiteral:
					pass.Reportf(call.Pos(), "context.%s inside a function literal detaches it from the caller's cancellation; capture the surrounding ctx instead", fn.Name())
				case hasCtx:
					pass.Reportf(call.Pos(), "context.%s in a function that already receives a ctx parameter; propagate the caller's context", fn.Name())
				case launches:
					pass.Reportf(call.Pos(), "context.%s in a function that launches goroutines; accept a ctx parameter so callers can cancel the fan-out", fn.Name())
				}
				return true
			})
		}
	}
}

func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func containsGoStmt(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}
