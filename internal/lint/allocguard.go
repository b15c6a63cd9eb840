package lint

import (
	"go/ast"
	"go/types"
)

// AllocGuard generalizes the CXB1 hostile-header discipline: a decoded
// size field is an attacker's claim, and neither `make` nor `slices.Grow`
// (how a decoder sizes the caller's buffer) may size an allocation from a
// claim that no comparison has bounded. The canonical in-repo shape is
// OpenBlocks' `count > uint64(avail/12)` check before
// `make([]BlockEntry, count)` — the claim is compared against the bytes
// actually present. The other sanctioned shapes are clamping through
// compress.HeaderPrealloc (or the min builtin) and growing incrementally
// with append inside a loop bounded by the claim, which allocates in
// proportion to work actually done.
var AllocGuard = &Analyzer{
	Name: "allocguard",
	Doc: `flags make() and slices.Grow calls whose length, capacity or
growth derives from a decoded header field (encoding/binary reads,
fib.Decode) with no dominating bound:
no comparison of the value against a limit, no min()/compress.HeaderPrealloc
clamp. Hostile-size claims must be checked against the bytes actually
present before memory is committed (cf. OpenBlocks' count≤avail/12).
Scope: internal/compress and its codec subpackages.`,
	Scope: scopeUnder("internal/compress"),
	Run:   runAllocGuard,
}

func runAllocGuard(pass *Pass) {
	fibPath := ModulePath + "/internal/fib"
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			RunTaintFlow(fd.Body, FlowConfig{
				Info: pass.Info,
				SourceCall: func(call *ast.CallExpr) bool {
					fn := calleeFunc(pass.Info, call)
					if fn == nil {
						return false
					}
					if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
						switch fn.Name() {
						// Package-level varint decoders and the ByteOrder
						// methods are the repo's only wire-integer readers.
						case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
							"Uint16", "Uint32", "Uint64":
							return true
						}
						return false
					}
					return isPkgFunc(fn, fibPath, "Decode")
				},
				Sanitizer: func(call *ast.CallExpr) bool {
					fn := calleeFunc(pass.Info, call)
					return isPkgFunc(fn, CompressPath, "HeaderPrealloc")
				},
				// Calls are opaque: a helper's result is not presumed to
				// carry header taint, keeping the check precise; helpers
				// that decode headers get analyzed as their own function
				// bodies.
				PropagateCalls:   false,
				GuardComparisons: true,
				At: func(n ast.Node, tainted func(ast.Expr) bool) {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					sink := ""
					if isPkgFunc(calleeFunc(pass.Info, call), "slices", "Grow") {
						sink = "slices.Grow"
					} else if id, ok := unparen(call.Fun).(*ast.Ident); ok {
						if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
							sink = "make()"
						}
					}
					if sink == "" {
						return
					}
					for _, arg := range call.Args[1:] {
						if tainted(arg) {
							pass.Reportf(call.Pos(), "%s sized by a decoded header field with no dominating bound check; compare the claim against the bytes actually present (cf. OpenBlocks count≤avail/12) or clamp with compress.HeaderPrealloc and grow by append", sink)
							break
						}
					}
				},
			})
		}
	}
}
