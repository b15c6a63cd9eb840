package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/lint"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// buildTool compiles dnalint once per test binary into a shared temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dnalint")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dnalint")
		cmd := exec.Command("go", "build", "-o", binPath, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("go build: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building dnalint: %v", buildErr)
	}
	return binPath
}

// TestStandaloneRepoClean runs the built binary over the whole module the
// way the Makefile lint target does.
func TestStandaloneRepoClean(t *testing.T) {
	bin := buildTool(t)
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dnalint ./... failed: %v\n%s", err, out)
	}
}

// scratchModule lays out a throwaway module mirroring this repository's
// module path (so analyzer scopes apply) and returns its root plus a
// writer for adding files.
func scratchModule(t *testing.T) (string, func(rel, content string)) {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module "+lint.ModulePath+"\n\ngo 1.22\n")
	return dir, write
}

// findsIn runs dnalint over the scratch module at dir, as `make lint`
// does, and requires it to exit 2 naming analyzer.
func findsIn(t *testing.T, bin, dir, analyzer string) {
	t.Helper()
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("dnalint ./... over a planted violation: err=%v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), analyzer) {
		t.Fatalf("dnalint output missing a %s finding:\n%s", analyzer, out)
	}
}

// TestJSONCleanGolden pins the machine-readable contract for a clean run:
// exactly the empty JSON array, exit 0.
func TestJSONCleanGolden(t *testing.T) {
	bin := buildTool(t)
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-json", "./internal/seq")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dnalint -json over a clean package failed: %v", err)
	}
	if got := string(out); got != "[]\n" {
		t.Fatalf("clean -json output = %q, want %q", got, "[]\n")
	}
}

// TestJSONFindings plants a violation and checks the -json finding shape
// CI archives as an artifact: file/line/col/analyzer/message, exit 2.
func TestJSONFindings(t *testing.T) {
	bin := buildTool(t)
	dir, write := scratchModule(t)
	write("internal/compress/badcodec/badcodec.go", `package badcodec

import "fmt"

func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("badcodec: empty stream")
	}
	return data, nil
}
`)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("dnalint -json over a violation: err=%v, want exit status 2\n%s", err, out)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(findings), out)
	}
	f := findings[0]
	if !strings.HasSuffix(f.File, "badcodec.go") || f.Line == 0 || f.Col == 0 ||
		f.Analyzer != "errtaxonomy" || !strings.Contains(f.Message, "ErrCorrupt") {
		t.Fatalf("finding shape wrong: %+v", f)
	}
}

// TestIgnoresAudit: a directive that suppresses a live finding passes the
// audit; one that suppresses nothing (and one missing its reason) makes
// `dnalint -ignores` exit non-zero, naming each.
func TestIgnoresAudit(t *testing.T) {
	bin := buildTool(t)
	dir, write := scratchModule(t)
	write("internal/compress/badcodec/badcodec.go", `package badcodec

import "fmt"

func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		//lint:ignore errtaxonomy scratch module has no ErrCorrupt taxonomy to wrap
		return nil, fmt.Errorf("badcodec: empty stream")
	}
	//lint:ignore errtaxonomy nothing on the next line ever triggers this
	return data, nil
}

//lint:ignore determinism
func placeholder() {}
`)
	cmd := exec.Command(bin, "-ignores", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("dnalint -ignores with stale directives: err=%v, want exit status 2\n%s", err, out)
	}
	text := string(out)
	for _, wantLine := range []string{
		"used", "STALE", "MALFORMED", "missing reason", "stale //lint:ignore",
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("-ignores output missing %q:\n%s", wantLine, text)
		}
	}

	// Dropping the stale and malformed directives makes the audit pass.
	write("internal/compress/badcodec/badcodec.go", `package badcodec

import "fmt"

func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		//lint:ignore errtaxonomy scratch module has no ErrCorrupt taxonomy to wrap
		return nil, fmt.Errorf("badcodec: empty stream")
	}
	return data, nil
}
`)
	cmd = exec.Command(bin, "-ignores", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dnalint -ignores with only live directives failed: %v\n%s", err, out)
	}
}

// TestVetToolFindsAliasingBug reintroduces the PR 6 Cache.Get bug shape —
// an exported method returning a map entry whose slice still aliases
// receiver state — and asserts the run fails on copydiscipline.
func TestVetToolFindsAliasingBug(t *testing.T) {
	bin := buildTool(t)
	dir, write := scratchModule(t)
	write("internal/compress/cache.go", `package compress

type Result struct {
	Data []byte
}

type Cache struct {
	m map[string]Result
}

func (c *Cache) Get(key string) (Result, bool) {
	r, ok := c.m[key]
	return r, ok
}
`)
	findsIn(t, bin, dir, "copydiscipline")
}

// TestVetToolFindsUnguardedHeaderMake reintroduces the hostile-allocation
// bug shape — make() sized directly by a decoded header count, the CXB1
// block-count class — and asserts the run fails on allocguard.
func TestVetToolFindsUnguardedHeaderMake(t *testing.T) {
	bin := buildTool(t)
	dir, write := scratchModule(t)
	write("internal/compress/frame.go", `package compress

import "encoding/binary"

func decodeOffsets(data []byte) []uint64 {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil
	}
	out := make([]uint64, count)
	for i := range out {
		out[i], _ = binary.Uvarint(data[n:])
	}
	return out
}
`)
	findsIn(t, bin, dir, "allocguard")
}

// TestVetToolFindsViolation plants an errtaxonomy violation in a scratch
// module that mirrors this repository's module path and asserts the run
// fails with the expected diagnostic — the same failure CI would show if
// a satellite fix were reverted.
func TestVetToolFindsViolation(t *testing.T) {
	bin := buildTool(t)
	dir, write := scratchModule(t)
	write("internal/compress/compress.go", `package compress

import (
	"errors"
	"fmt"
)

var ErrCorrupt = errors.New("compress: corrupt stream")

func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}
`)
	write("internal/compress/badcodec/badcodec.go", `package badcodec

import "fmt"

func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("badcodec: empty stream")
	}
	return data, nil
}
`)
	findsIn(t, bin, dir, "errtaxonomy")
}
