package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineBound demands every `go` statement live inside a recognized
// bounded-pool shape. The repository's concurrency idiom is par.For, a
// fixed worker count joined by a sync.WaitGroup, which the block seal, the
// exchange's transfers, RunGrid, RunLoad, dnacomp's batch mode and the
// fleet's replica fan-outs all call; a stray fire-and-forget goroutine is
// a leak under the service workloads the ROADMAP is heading toward, and —
// worse — an unjoined writer racing the function's return. The fleet's quorum writes make the stakes concrete:
// an abandoned replica goroutine is a shard write racing the ack count.
// Shapes accepted:
//
//   - WaitGroup pool: wg.Add before the go statement, wg.Done inside the
//     goroutine, wg.Wait somewhere in the function.
//   - Semaphore: a channel send (acquire) before the go statement with the
//     matching receive (release) inside the goroutine.
//   - Completion join: the goroutine sends on a channel the function
//     unconditionally receives from after the spawn. A receive inside a
//     select does NOT count — select can take the other arm and abandon
//     the goroutine — so such sites need a justified //lint:ignore.
var GoroutineBound = &Analyzer{
	Name: "goroutinebound",
	Doc: `flags go statements outside a recognized bounded-pool shape: a
sync.WaitGroup pool (Add before, Done inside, Wait in the function), a
semaphore channel (send before, receive inside), or a completion join
(send inside, unconditional receive after). Fire-and-forget goroutines
need a //lint:ignore goroutinebound with the reason they may outlive
their spawner. Scope: every package.`,
	Scope: nil,
	Run:   runGoroutineBound,
}

func runGoroutineBound(pass *Pass) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Shape evidence (Add/Done/Wait, channel sends/receives) is
			// searched in the whole declaration, so a goroutine inside a
			// nested literal may be joined by its outer function.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !boundedShape(pass.Info, fd, g) {
					pass.Reportf(g.Pos(), "go statement outside a recognized bounded-pool shape (WaitGroup Add/Done/Wait, semaphore channel, or unconditional completion join); unjoined goroutines leak — join it or justify with //lint:ignore goroutinebound <reason>")
				}
				return true
			})
		}
	}
}

// boundedShape reports whether the go statement g inside fd matches one of
// the accepted pool shapes.
func boundedShape(info *types.Info, fd *ast.FuncDecl, g *ast.GoStmt) bool {
	var body *ast.BlockStmt
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	}
	inside := func(n ast.Node) bool {
		return body != nil && body.Pos() <= n.Pos() && n.End() <= body.End()
	}

	// --- WaitGroup pool -------------------------------------------------
	type wgEvidence struct{ addBefore, doneInside, wait bool }
	wgs := map[types.Object]*wgEvidence{}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Add" && name != "Done" && name != "Wait" {
			return true
		}
		obj := rootObject(info, sel.X)
		if obj == nil || !isWaitGroup(obj.Type()) {
			return true
		}
		ev := wgs[obj]
		if ev == nil {
			ev = &wgEvidence{}
			wgs[obj] = ev
		}
		switch name {
		case "Add":
			if !inside(call) && call.Pos() < g.Pos() {
				ev.addBefore = true
			}
		case "Done":
			if inside(call) {
				ev.doneInside = true
			}
		case "Wait":
			if !inside(call) {
				ev.wait = true
			}
		}
		return true
	})
	for _, ev := range wgs {
		if ev.addBefore && ev.doneInside && ev.wait {
			return true
		}
	}

	// --- channel shapes -------------------------------------------------
	type chEvidence struct {
		sendBefore, recvInside bool // semaphore: acquire outside, release in
		sendInside             bool // completion join: result sent from worker
		recvAfterPlain         bool // ...received unconditionally after spawn
	}
	chs := map[types.Object]*chEvidence{}
	evFor := func(e ast.Expr) *chEvidence {
		obj := rootObject(info, e)
		if obj == nil {
			return nil
		}
		if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
			return nil
		}
		ev := chs[obj]
		if ev == nil {
			ev = &chEvidence{}
			chs[obj] = ev
		}
		return ev
	}
	inspectStack(fd, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if ev := evFor(n.Chan); ev != nil {
				if inside(n) {
					ev.sendInside = true
				} else if n.Pos() < g.Pos() {
					ev.sendBefore = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			ev := evFor(n.X)
			if ev == nil {
				return true
			}
			if inside(n) {
				ev.recvInside = true
			} else if n.Pos() > g.End() && !underSelect(stack, fd) {
				ev.recvAfterPlain = true
			}
		case *ast.RangeStmt:
			// `for range ch` after the spawn drains the channel — an
			// unconditional join.
			if ev := evFor(n.X); ev != nil && !inside(n) && n.Pos() > g.End() {
				ev.recvAfterPlain = true
			}
		}
		return true
	})
	for _, ev := range chs {
		if ev.sendBefore && ev.recvInside {
			return true
		}
		if ev.sendInside && ev.recvAfterPlain {
			return true
		}
	}
	return false
}

// underSelect reports whether the innermost enclosing branch construct on
// the stack is a select statement — a receive there is conditional.
func underSelect(stack []ast.Node, fd *ast.FuncDecl) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.SelectStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	_ = fd
	return false
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly via pointer).
func isWaitGroup(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
