package lint

import (
	"go/ast"
	"go/types"
)

// SpanEnd guards the tracing layer's one lifecycle rule: every span opened
// with obs.Start must be ended, or request traces silently lose their
// inner spans (a leaked span never reaches the tracer's finished-record
// list, so ?trace=1 exports and the -trace sink both see a hole where
// the work happened). A span is considered reliably ended when End is
// deferred (directly or inside a deferred closure), called
// unconditionally later in the same block as the Start, or called
// inside any function literal (the serve queue pattern, where the worker
// closure ends the wait span). A span that escapes the function — stored
// in a struct, passed along, returned — is someone else's responsibility
// and stays clean. Discarding the span outright, or ending it only on
// some control-flow paths, is flagged.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc: `flags spans from obs.Start that are discarded or not reliably ended:
clean means defer span.End() (directly or in a deferred closure), an
unconditional End later in the same block, an End inside a function
literal, or the span escaping the function. Conditional-only Ends leak
the span on the other paths. Scope: every module package.`,
	Run: runSpanEnd,
}

// obsPath is the tracing package whose Start contract SpanEnd enforces.
const obsPath = ModulePath + "/internal/obs"

func runSpanEnd(pass *Pass) {
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(calleeFunc(pass.Info, call), obsPath, "Start") {
				return true
			}
			checkStartCall(pass, call, stack)
			return true
		})
	}
}

// checkStartCall classifies one obs.Start call site given the enclosing
// node stack (outermost first, excluding the call itself).
func checkStartCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	parent := ast.Node(nil)
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	assign, ok := parent.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 2 {
		// Both results dropped (expression statement), or the tuple used in
		// some shape that cannot bind the span to a variable.
		pass.Reportf(call.Pos(), "span from obs.Start is discarded; bind it and defer its End")
		return
	}
	spanExpr := unparen(assign.Lhs[1])
	id, ok := spanExpr.(*ast.Ident)
	if !ok {
		return // field/index destination: the span escapes, ended elsewhere
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "span from obs.Start is discarded; bind it and defer its End")
		return
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	fn := enclosingFunc(stack)
	if fn == nil {
		return
	}
	block := enclosingBlock(stack)
	if spanHandled(pass.Info, fn, obj, assign, block) {
		return
	}
	pass.Reportf(call.Pos(), "span %s is not reliably ended: defer %s.End() or end it unconditionally in the same block", id.Name, id.Name)
}

// enclosingBlock returns the innermost *ast.BlockStmt on the stack.
func enclosingBlock(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

// spanHandled scans the enclosing function for a use of the span object
// that guarantees End runs (or moves responsibility elsewhere): a deferred
// End, an End inside any function literal, an unconditional End later in
// assignBlock, or the span escaping through a call, return or assignment.
func spanHandled(info *types.Info, fn ast.Node, obj types.Object, assign *ast.AssignStmt, assignBlock *ast.BlockStmt) bool {
	handled := false
	inspectStack(fn, func(n ast.Node, stack []ast.Node) bool {
		if handled {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		if isDefinition(stack, assign) {
			return true
		}
		sel, selOK := parentAt(stack, 0).(*ast.SelectorExpr)
		callP, callOK := parentAt(stack, 1).(*ast.CallExpr)
		if selOK && callOK && sel.X == id && callP.Fun == sel {
			// A method call on the span. End counts when its execution is
			// guaranteed; SetAttr and friends prove nothing.
			if sel.Sel.Name != "End" {
				return true
			}
			if guaranteedEnd(stack, fn, assign, assignBlock) {
				handled = true
			}
			return true
		}
		// Any non-receiver use — argument, return value, RHS of another
		// assignment, composite literal, comparison — means the span leaves
		// our sight; conservatively treat it as handled elsewhere.
		handled = true
		return true
	})
	return handled
}

// isDefinition reports whether the identifier use at stack is the LHS of
// the obs.Start assignment itself.
func isDefinition(stack []ast.Node, assign *ast.AssignStmt) bool {
	return len(stack) > 0 && stack[len(stack)-1] == assign
}

// parentAt returns the stack entry up levels above the immediate parent
// (0 = immediate parent), or nil.
func parentAt(stack []ast.Node, up int) ast.Node {
	i := len(stack) - 1 - up
	if i < 0 {
		return nil
	}
	return stack[i]
}

// guaranteedEnd reports whether the End call whose receiver-use stack is
// given always runs once the function returns: it is deferred (directly or
// via a deferred closure), sits inside any function literal below fn, or
// is an unconditional statement of assignBlock after the assignment.
func guaranteedEnd(stack []ast.Node, fn ast.Node, assign *ast.AssignStmt, assignBlock *ast.BlockStmt) bool {
	for i, n := range stack {
		switch n.(type) {
		case *ast.DeferStmt:
			return true
		case *ast.FuncLit:
			if n != fn {
				return true
			}
		case *ast.BlockStmt:
			// An ExprStmt directly inside the assignment's own block, after
			// the assignment, runs unconditionally (or not at all because an
			// earlier return fired — in which case that path was analyzed on
			// its own End).
			if n == assignBlock && i+1 < len(stack) {
				if es, ok := stack[i+1].(*ast.ExprStmt); ok && es.Pos() > assign.End() {
					return true
				}
			}
		}
	}
	return false
}
