// Command dnalint runs the repository's invariant analyzers (package
// internal/lint): the per-statement checks (determinism, errtaxonomy,
// registerinit, ctxprop, statsadd, clockinject, spanend) and the dataflow
// suite (untrustedflow, allocguard, goroutinebound, copydiscipline).
//
// From anywhere inside the module:
//
//	dnalint ./...              # whole module
//	dnalint ./internal/...     # one subtree
//	dnalint ./internal/synth   # one package
//	dnalint -json ./...        # findings as a JSON array on stdout
//	dnalint -ignores ./...     # audit //lint:ignore directives; stale ones fail
//
// It type-checks from source every package under the module root, the
// nested perfbench module included, so `dnalint ./...` covers what `go
// vet ./...` at the root does not reach. `make lint` runs it that way.
//
// Exit status: 0 clean, 1 operational error, 2 findings (matching go vet's
// convention for analysis tools). -ignores exits 2 when any directive is
// stale — suppressing nothing, or missing its mandatory reason.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/srl-nuces/ctxdna/internal/lint"
)

func main() {
	var jsonOut, auditIgnores bool
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-help", "--help", "-h":
			usage()
			return
		case "-json", "--json":
			jsonOut = true
		case "-ignores", "--ignores":
			auditIgnores = true
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "dnalint: unknown flag %s (see -help)\n", a)
				os.Exit(1)
			}
			patterns = append(patterns, a)
		}
	}
	switch {
	case auditIgnores:
		os.Exit(ignoresAudit(patterns))
	case jsonOut:
		os.Exit(standaloneJSON(patterns))
	default:
		os.Exit(standalone(patterns))
	}
}

func usage() {
	fmt.Println("usage: dnalint [-json] [-ignores] [package pattern ...]   (default ./...)")
	fmt.Println()
	fmt.Println("modes:")
	fmt.Println("  (default)  print findings as file:line:col: analyzer: message on stderr")
	fmt.Println("  -json      print findings as a JSON array on stdout ([] when clean)")
	fmt.Println("  -ignores   audit //lint:ignore directives: list each with its status,")
	fmt.Println("             exit 2 if any is stale (suppresses nothing) or malformed")
	fmt.Println("             (missing the mandatory reason)")
	fmt.Println()
	fmt.Println("analyzers:")
	for _, a := range lint.All() {
		fmt.Printf("  %-14s %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n                 "))
		fmt.Println()
	}
	fmt.Println("suppress one finding with: //lint:ignore <analyzer>[,<analyzer>...] reason")
	fmt.Println("the reason is mandatory; a reasonless directive is inert and fails -ignores")
}

// standalone lints module packages matched by the patterns using the
// from-source loader, printing findings to stderr.
func standalone(patterns []string) int {
	diags, err := lintHere(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnalint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// jsonFinding is the machine-readable shape of one diagnostic, stable for
// CI artifact consumers.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// standaloneJSON is the -json mode: findings as a JSON array on stdout,
// [] when clean, same exit codes as the default mode.
func standaloneJSON(patterns []string) int {
	diags, err := lintHere(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnalint:", err)
		return 1
	}
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findings); err != nil {
		fmt.Fprintln(os.Stderr, "dnalint:", err)
		return 1
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// ignoresAudit is the -ignores mode: run the full suite, list every
// //lint:ignore directive with whether it still suppresses a finding, and
// fail on the ones that do not. A stale directive is a claim about the
// line below it that stopped being true — either the code was fixed (drop
// the directive) or the analyzer changed (re-justify it).
func ignoresAudit(patterns []string) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnalint:", err)
		return 1
	}
	res, err := lint.LintModuleAudit(wd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnalint:", err)
		return 1
	}
	for _, d := range res.Ignores {
		status := "used"
		switch {
		case d.Malformed():
			status = "MALFORMED"
		case !d.Used():
			status = "STALE"
		}
		fmt.Printf("%-9s %s\n", status, d.String())
	}
	stale := res.Stale()
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "dnalint: %d stale //lint:ignore directive(s); remove them or re-justify\n", len(stale))
		return 2
	}
	fmt.Printf("%d directive(s), all suppressing live findings\n", len(res.Ignores))
	return 0
}

func lintHere(patterns []string) ([]lint.Diagnostic, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	return lint.LintModule(wd, patterns)
}
