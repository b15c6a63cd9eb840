package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureLoader resolves fixture import paths under testdata/src while
// module-path imports (the real compress package) and the stdlib come from
// their usual locations.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	l.FixtureRoot = filepath.Join(moduleDir, "internal", "lint", "testdata", "src")
	return l
}

// runForTest applies one analyzer to a package ignoring its Scope, so
// fixtures don't need to masquerade as module packages.
func runForTest(a *Analyzer, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    &diags,
		ignores:  buildIgnoreIndex(pkg.Fset, pkg.Files),
	}
	a.Run(pass)
	SortDiagnostics(diags)
	return diags
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// checkFixture loads a fixture package, runs the analyzer, and verifies
// the diagnostics against the `// want `...“ comments, analysistest-style:
// every want must be matched by exactly one diagnostic on its line and
// every diagnostic must be claimed by a want.
func checkFixture(t *testing.T, a *Analyzer, fixturePath string) {
	t.Helper()
	pkg, err := fixtureLoader(t).Load(fixturePath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixturePath, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no want comments", fixturePath)
	}

	for _, d := range runForTest(a, pkg) {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestClockInjectFixture(t *testing.T)  { checkFixture(t, ClockInject, "fixtures/clockinject") }
func TestDeterminismFixture(t *testing.T)  { checkFixture(t, Determinism, "fixtures/determinism") }
func TestErrTaxonomyFixture(t *testing.T)  { checkFixture(t, ErrTaxonomy, "fixtures/errtaxonomy") }
func TestRegisterInitFixture(t *testing.T) { checkFixture(t, RegisterInit, "fixtures/registerinit") }
func TestCtxPropFixture(t *testing.T)      { checkFixture(t, CtxProp, "fixtures/ctxprop") }
func TestStatsAddFixture(t *testing.T)     { checkFixture(t, StatsAdd, "fixtures/statsadd") }
func TestSpanEndFixture(t *testing.T)      { checkFixture(t, SpanEnd, "fixtures/spanend") }

func TestUntrustedFlowFixture(t *testing.T) {
	checkFixture(t, UntrustedFlow, "fixtures/untrustedflow")
}
func TestGoroutineBoundFixture(t *testing.T) {
	checkFixture(t, GoroutineBound, "fixtures/goroutinebound")
}
func TestAllocGuardFixture(t *testing.T) { checkFixture(t, AllocGuard, "fixtures/allocguard") }
func TestCopyDisciplineFixture(t *testing.T) {
	checkFixture(t, CopyDiscipline, "fixtures/copydiscipline")
}

// TestRepositoryClean is the regression gate: the whole module must stay
// free of dnalint findings. Reintroducing a violation (say, turning one of
// biocompress's compress.Corruptf calls back into a bare fmt.Errorf) fails
// this test and the CI lint job alike.
func TestRepositoryClean(t *testing.T) {
	diags, err := LintModule(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestScopes pins each analyzer's package scope: the measurement-path
// packages are covered, the CLIs and unrelated internals are not.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkg      string
		want     bool
	}{
		{Determinism, ModulePath + "/internal/compress", true},
		{Determinism, ModulePath + "/internal/compress/dnax", true},
		{Determinism, ModulePath + "/internal/experiment", true},
		{Determinism, ModulePath + "/internal/cloud", true},
		{Determinism, ModulePath + "/internal/synth", true},
		{Determinism, ModulePath + "/cmd/experiment", false},
		{Determinism, ModulePath + "/internal/seq", false},
		{ErrTaxonomy, ModulePath + "/internal/compress/dnax", true},
		{ErrTaxonomy, ModulePath + "/internal/bitio", false},
		{CtxProp, ModulePath + "/internal/experiment", true},
		{CtxProp, ModulePath + "/internal/cloud", false},
		{ClockInject, ModulePath + "/internal/compress", true},
		{ClockInject, ModulePath + "/internal/compress/dnax", true},
		{ClockInject, ModulePath + "/internal/cloud", true},
		{ClockInject, ModulePath + "/internal/experiment", true},
		{ClockInject, ModulePath + "/internal/serve", true},
		{ClockInject, ModulePath + "/internal/obs", false},
		{ClockInject, ModulePath + "/internal/synth", false},
		{ClockInject, ModulePath + "/cmd/dnacomp", false},
		{UntrustedFlow, ModulePath + "/internal/cloud", true},
		{UntrustedFlow, ModulePath + "/internal/serve", true},
		{UntrustedFlow, ModulePath + "/cmd/dnacomp", true},
		{UntrustedFlow, ModulePath + "/internal/compress", false},
		{AllocGuard, ModulePath + "/internal/compress", true},
		{AllocGuard, ModulePath + "/internal/compress/dnax", true},
		{AllocGuard, ModulePath + "/internal/cloud", false},
		{CopyDiscipline, ModulePath + "/internal/compress", true},
		{CopyDiscipline, ModulePath + "/internal/cloud", true},
		{CopyDiscipline, ModulePath + "/internal/experiment", true},
		{CopyDiscipline, ModulePath + "/internal/stats", true},
		{CopyDiscipline, ModulePath + "/internal/obs", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(c.pkg); got != c.want {
			t.Errorf("%s.Scope(%s) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
	for _, a := range []*Analyzer{RegisterInit, StatsAdd, GoroutineBound, SpanEnd} {
		if a.Scope != nil {
			t.Errorf("%s should apply to every package", a.Name)
		}
	}
}

// TestIgnoreDirective verifies both placements of //lint:ignore and that a
// directive missing its reason stays inert.
func TestIgnoreDirective(t *testing.T) {
	pkg, err := fixtureLoader(t).Load("fixtures/ignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := runForTest(Determinism, pkg)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly the reasonless-directive line", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "time.Now") {
		t.Errorf("surviving diagnostic = %s", diags[0])
	}
}

// TestDiagnosticOrderStable: the linter's own output must be deterministic.
func TestDiagnosticOrderStable(t *testing.T) {
	pkg, err := fixtureLoader(t).Load("fixtures/determinism")
	if err != nil {
		t.Fatal(err)
	}
	first := fmt.Sprint(runForTest(Determinism, pkg))
	for i := 0; i < 3; i++ {
		if again := fmt.Sprint(runForTest(Determinism, pkg)); again != first {
			t.Fatalf("diagnostic order changed between runs:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestModulePackages sanity-checks the ./... universe the standalone
// driver analyzes.
func TestModulePackages(t *testing.T) {
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		ModulePath + "/cmd/dnalint",
		ModulePath + "/examples/quickstart",
		ModulePath + "/internal/compress",
		ModulePath + "/internal/lint",
	}
	have := map[string]bool{}
	for _, p := range pkgs {
		have[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into the universe: %s", p)
		}
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("ModulePackages missing %s (got %d packages)", w, len(pkgs))
		}
	}
}
