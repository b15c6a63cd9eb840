package lint

import (
	"go/ast"
	"go/types"
)

// UntrustedFlow tracks bytes from untrusted origins — blob-store
// downloads, files read off the command line, byte-slice parameters of
// exchange entry points — and demands they reach a codec only through the
// hardened decode layer. PR 4 routed every decode through
// SafeDecompress/Open; this analyzer is what keeps a later refactor from
// quietly rerouting a downloaded payload into a raw Decompress or into an
// allocation sized by attacker bytes.
var UntrustedFlow = &Analyzer{
	Name: "untrustedflow",
	Doc: `taint-tracks untrusted bytes (cloud.Store Get/GetRange/Download
results, a GetRange or GetRangeCtx through any interface, os.ReadFile,
io.ReadAll and serve.ReadBody input, []byte parameters) through
assignments, appends, slices and branches, and flags flows into a raw
Decompress or DecompressTo call or into make() sizing without an
intervening bound check.
Sanctioned sinks: compress.SafeDecompress, SafeDecompressAny, Open,
OpenBlocks, OpenBlocksObserved, OpenBlockIndex. Scope: internal/cloud,
internal/serve and cmd/.`,
	Scope: scopeUnder("internal/cloud", "internal/serve", "cmd"),
	Run:   runUntrustedFlow,
}

// untrustedSanitizers are the hardened entry points of internal/compress:
// bytes that pass through them have been length-limited, checksummed and
// panic-contained, and their results are trusted.
var untrustedSanitizers = map[string]bool{
	"SafeDecompress":     true,
	"SafeDecompressAny":  true,
	"Open":               true,
	"OpenBlocks":         true,
	"OpenBlocksObserved": true,
	"OpenBlockIndex":     true,
}

// untrustedStoreReads are the methods whose results are remote bytes: on
// any internal/cloud type, interface or concrete, all of them; on an
// interface declared elsewhere, the ranged reads, which is how the daemon
// reaches a versioned store.
var untrustedStoreReads = map[string]bool{
	"Get":         true,
	"Download":    true,
	"GetRange":    true,
	"GetRangeCtx": true,
}

func runUntrustedFlow(pass *Pass) {
	cloudPath := ModulePath + "/internal/cloud"
	servePath := ModulePath + "/internal/serve"
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			RunTaintFlow(fd.Body, FlowConfig{
				Info: pass.Info,
				Seed: func(st State) {
					// Byte-slice parameters are untrusted: the exchange and
					// CLI layers hand raw payloads around as []byte and the
					// caller's provenance is invisible intraprocedurally.
					seedByteParams(pass.Info, fd, st)
				},
				SourceCall: func(call *ast.CallExpr) bool {
					fn := calleeFunc(pass.Info, call)
					if fn == nil {
						return false
					}
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						if !untrustedStoreReads[fn.Name()] {
							return false
						}
						if fn.Pkg() != nil && fn.Pkg().Path() == cloudPath {
							return true
						}
						return types.IsInterface(sig.Recv().Type()) && (fn.Name() == "GetRange" || fn.Name() == "GetRangeCtx")
					}
					return isPkgFunc(fn, "os", "ReadFile") || isPkgFunc(fn, "io", "ReadAll") ||
						isPkgFunc(fn, servePath, "ReadBody")
				},
				Sanitizer: func(call *ast.CallExpr) bool {
					fn := calleeFunc(pass.Info, call)
					return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == CompressPath &&
						untrustedSanitizers[fn.Name()]
				},
				PropagateCalls:   true,
				GuardComparisons: true,
				At: func(n ast.Node, tainted func(ast.Expr) bool) {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					if fn := calleeFunc(pass.Info, call); fn != nil && (fn.Name() == "Decompress" || fn.Name() == "DecompressTo") {
						for _, arg := range call.Args {
							if tainted(arg) {
								pass.Reportf(call.Pos(), "untrusted bytes reach a raw %s; decode through compress.SafeDecompress/SafeDecompressAny (or OpenBlocks for either container format) so size limits, codec pinning and panic containment apply", fn.Name())
								break
							}
						}
					}
					if id, ok := unparen(call.Fun).(*ast.Ident); ok {
						if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
							for _, arg := range call.Args[1:] {
								if tainted(arg) {
									pass.Reportf(call.Pos(), "make() sized by untrusted input without a bound check; compare the size against a limit (or the bytes actually present) first")
									break
								}
							}
						}
					}
				},
			})
		}
	}
}

// seedByteParams taints fd's parameters whose type is []byte or [][]byte.
func seedByteParams(info *types.Info, fd *ast.FuncDecl, st State) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if isByteSliceDeep(obj.Type()) {
				st[obj] = true
			}
		}
	}
}

// isByteSliceDeep matches []byte and [][]byte (and deeper nestings).
func isByteSliceDeep(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if basic, ok := sl.Elem().Underlying().(*types.Basic); ok {
		return basic.Kind() == types.Byte
	}
	return isByteSliceDeep(sl.Elem())
}
