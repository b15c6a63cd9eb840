package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrTaxonomy guards the corrupt-stream error taxonomy. Round-trip
// verification, the result cache and the fuzz harness all classify decode
// failures with errors.Is(err, compress.ErrCorrupt); a bare fmt.Errorf in a
// Decompress path mints an error outside that taxonomy and the failure
// stops being recognizable as corruption. A decode path starts at a
// Decompress function or at a shared stream reader's API (the repeat
// codecs decode through package token's Reader), and follows calls within
// the package.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc: `flags fmt.Errorf calls reachable from a Decompress function, or from
an exported method of a type named Reader or an exported function that
returns one, whose format neither wraps with %w nor goes through
compress.Corruptf, so errors.Is(err, compress.ErrCorrupt) keeps
classifying corrupt streams. Scope: internal/compress and its codec
subpackages.`,
	Scope: scopeUnder("internal/compress"),
	Run:   runErrTaxonomy,
}

func runErrTaxonomy(pass *Pass) {
	// Map each package-level function object to its declaration so the
	// reachability walk can follow same-package calls.
	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
			if fd.Name.Name == "Decompress" || readerAPI(pass.Info, fd) {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return
	}

	// Breadth-first over static same-package calls from the roots.
	// Function literals inside a reachable declaration are part of its
	// body and are walked with it.
	reachable := map[*ast.FuncDecl]bool{}
	queue := append([]*ast.FuncDecl(nil), roots...)
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if reachable[fd] {
			continue
		}
		reachable[fd] = true
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			if next, ok := decls[callee]; ok && !reachable[next] {
				queue = append(queue, next)
			}
			return true
		})
	}

	for fd := range reachable {
		// Corruptf is the taxonomy's own constructor: its fmt.Errorf
		// necessarily builds "%w: "+format from a caller-supplied string.
		// Flagging it would demand Corruptf go through Corruptf.
		if fd.Name.Name == "Corruptf" {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if !isPkgFunc(callee, "fmt", "Errorf") || len(call.Args) == 0 {
				return true
			}
			format, known := constantString(pass.Info, call.Args[0])
			switch {
			case !known:
				pass.Reportf(call.Pos(), "fmt.Errorf with non-constant format in a Decompress path; use compress.Corruptf so errors.Is(err, compress.ErrCorrupt) holds")
			case !strings.Contains(format, "%w"):
				pass.Reportf(call.Pos(), "error minted in a Decompress path without %%w or compress.Corruptf; corrupt streams become invisible to errors.Is(err, compress.ErrCorrupt)")
			}
			return true
		})
	}
}

// readerAPI reports whether fd is exported and is a method of a type
// named Reader or returns one.
func readerAPI(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok || !fd.Name.IsExported() {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return isReader(recv.Type())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isReader(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// isReader reports whether t is, or points to, a named type Reader.
func isReader(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Reader"
}

// constantString evaluates e as a compile-time string constant.
func constantString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
