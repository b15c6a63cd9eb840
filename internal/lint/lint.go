// Package lint implements dnalint: a suite of static analyzers enforcing
// the repository's determinism, error-taxonomy and codec-contract
// invariants (see DESIGN.md §"Static analysis & invariants").
//
// The paper's result rests on reproducible per-(file × context × codec)
// measurements. The experiment pipeline is byte-deterministic for any jobs
// value, round-trip verification relies on errors.Is(err, compress.ErrCorrupt),
// the registry enumeration is stable, and Stats.PeakMem carries max — not
// sum — semantics. Nothing but convention stops a refactor from breaking
// any of these silently; this package turns the conventions into
// compiler-checked rules.
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Reportf) on the standard library alone, so the repository keeps its
// zero-dependency property. cmd/dnalint drives the suite over packages
// type-checked from source (Loader).
//
// Suppressions: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] reason
//
// (or `//lint:ignore all reason`) silences the named analyzers on the same
// line and the line below, so it works both as a trailing comment and as a
// directive above the offending statement. The reason is mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is this repository's module path; the analyzers key their
// package scopes and codec-contract symbols off it.
const ModulePath = "github.com/srl-nuces/ctxdna"

// CompressPath is the import path of the codec registry package whose
// contract (Register, Stats, ErrCorrupt/Corruptf) several analyzers guard.
const CompressPath = ModulePath + "/internal/compress"

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is the one-paragraph description printed by `dnalint -help`.
	Doc string
	// Scope reports whether the analyzer applies to a package path.
	// nil means every package. Test files (*_test.go) are always skipped:
	// the invariants guard production measurement paths.
	Scope func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags   *[]Diagnostic
	ignores ignoreIndex
}

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless the position falls in a test
// file or under a matching //lint:ignore directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.ignores.ignored(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IgnoreDirective is one //lint:ignore comment found in a package. The
// suite keeps directive identity (not just line coverage) so the stale-
// suppression audit can report directives that no longer silence anything.
type IgnoreDirective struct {
	// Pos is the directive comment's own position.
	Pos token.Position
	// Analyzers are the names the directive silences ("all" matches every
	// analyzer).
	Analyzers []string
	// Reason is the mandatory justification text after the analyzer list;
	// empty means the directive is malformed and suppresses nothing.
	Reason string

	used bool
}

// Used reports whether the directive suppressed at least one finding
// during the analyzer runs that shared its index.
func (d *IgnoreDirective) Used() bool { return d.used }

// Malformed reports a directive missing its mandatory reason; such
// directives are inert and the audit flags them.
func (d *IgnoreDirective) Malformed() bool { return d.Reason == "" }

func (d *IgnoreDirective) String() string {
	label := strings.Join(d.Analyzers, ",")
	if d.Malformed() {
		return fmt.Sprintf("%s:%d: //lint:ignore %s (malformed: missing reason)", d.Pos.Filename, d.Pos.Line, label)
	}
	return fmt.Sprintf("%s:%d: //lint:ignore %s %s", d.Pos.Filename, d.Pos.Line, label, d.Reason)
}

// ignoreIndex maps file -> line -> the directives covering that line.
type ignoreIndex struct {
	byLine map[string]map[int][]*IgnoreDirective
	list   []*IgnoreDirective
}

// ignored reports whether a directive silences analyzer at file:line, and
// marks every matching directive used.
func (ix ignoreIndex) ignored(file string, line int, analyzer string) bool {
	hit := false
	for _, d := range ix.byLine[file][line] {
		if d.Malformed() {
			continue
		}
		for _, name := range d.Analyzers {
			if name == "all" || name == analyzer {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// buildIgnoreIndex scans the package's comments for lint:ignore directives.
// A directive covers its own line (trailing-comment form) and the line
// below (directive-above form). Malformed directives (no reason) are kept
// in the list — inert for suppression, visible to the audit.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) ignoreIndex {
	ix := ignoreIndex{byLine: map[string]map[int][]*IgnoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				rest := strings.TrimPrefix(text, "lint:ignore")
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue // not even an analyzer list; nothing to audit
				}
				d := &IgnoreDirective{
					Pos:       fset.Position(c.Pos()),
					Analyzers: strings.Split(fields[0], ","),
				}
				if len(fields) > 1 {
					d.Reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				}
				ix.list = append(ix.list, d)
				m := ix.byLine[d.Pos.Filename]
				if m == nil {
					m = map[int][]*IgnoreDirective{}
					ix.byLine[d.Pos.Filename] = m
				}
				m[d.Pos.Line] = append(m[d.Pos.Line], d)
				m[d.Pos.Line+1] = append(m[d.Pos.Line+1], d)
			}
		}
	}
	return ix
}

// RunPackage applies every in-scope analyzer to pkg and returns the
// findings sorted by position — the suite's own output must be
// deterministic.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunPackageIgnores(pkg, analyzers)
	return diags
}

// RunPackageIgnores is RunPackage plus the package's //lint:ignore
// directives, with Used() reflecting which ones suppressed a finding —
// the input to the stale-suppression audit.
func RunPackageIgnores(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []*IgnoreDirective) {
	var diags []Diagnostic
	ignores := buildIgnoreIndex(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
			ignores:  ignores,
		}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags, ignores.list
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// scopeUnder builds a Scope function matching the module-relative package
// paths rels and, where the rel names a parent, all packages beneath it.
func scopeUnder(rels ...string) func(string) bool {
	return func(pkgPath string) bool {
		rel := strings.TrimPrefix(pkgPath, ModulePath+"/")
		if rel == pkgPath && pkgPath != ModulePath {
			return false // not in this module
		}
		for _, want := range rels {
			if rel == want || strings.HasPrefix(rel, want+"/") {
				return true
			}
		}
		return false
	}
}

// --- shared AST/type helpers -------------------------------------------

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil for calls through variables, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// inspectStack walks root like ast.Inspect while maintaining the stack of
// enclosing nodes (outermost first, not including n itself).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function node (FuncDecl or FuncLit)
// on the stack, or nil at package scope.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// objectOf resolves the root object an expression refers to: the variable
// behind an identifier or the field behind a selector. Returns nil for
// anything else.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
