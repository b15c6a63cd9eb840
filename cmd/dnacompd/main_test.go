package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/serve"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// buildDaemon compiles dnacompd once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dnacompd")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dnacompd")
		cmd := exec.Command("go", "build", "-o", binPath, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building dnacompd: %v", buildErr)
	}
	return binPath
}

var (
	modelOnce sync.Once
	modelFile string
	modelErr  error
)

// testModel trains and persists one small model for every daemon test, so
// the binary starts instantly instead of training its fallback.
func testModel(t *testing.T) string {
	t.Helper()
	modelOnce.Do(func() {
		files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 6, MinSize: 2 << 10, MaxSize: 16 << 10, Seed: 7})
		g, err := experiment.Run(files, cloud.Grid(), []string{"gzip", "twobit"}, experiment.DefaultNoise())
		if err != nil {
			modelErr = err
			return
		}
		eng, err := serve.TrainEngine(g, experiment.MethodCART)
		if err != nil {
			modelErr = err
			return
		}
		dir, err := os.MkdirTemp("", "dnacompd-model")
		if err != nil {
			modelErr = err
			return
		}
		modelFile = filepath.Join(dir, "model.json")
		modelErr = serve.SaveModel(modelFile, eng)
	})
	if modelErr != nil {
		t.Fatalf("training test model: %v", modelErr)
	}
	return modelFile
}

// TestBadAddrExitsStatus2 is the bugfix-sweep contract for the daemon
// itself: an unbindable address must fail the process with exit status 2
// before it claims to serve, not surface asynchronously from a goroutine.
func TestBadAddrExitsStatus2(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "256.256.256.256:99999", "-model", testModel(t))
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit status %d, want 2\n%s", code, out)
	}
	if !strings.Contains(string(out), "bind") {
		t.Errorf("stderr does not mention the bind failure: %s", out)
	}
}

// TestUsageErrorsExitStatus2: flag misuse is a usage error too.
func TestUsageErrorsExitStatus2(t *testing.T) {
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-addr", ""},
		{"unexpected-positional"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, out)
		}
	}
}

// startDaemon launches the binary on an ephemeral port and returns its
// base URL by parsing the startup banner.
func startDaemon(t *testing.T, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-model", testModel(t)}, extraArgs...)
	cmd := exec.Command(buildDaemon(t), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	lineCh := make(chan string, 16)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("daemon exited before announcing its address")
			}
			if strings.Contains(line, "serving on ") {
				addr := strings.Fields(strings.SplitAfter(line, "serving on ")[1])[0]
				// Keep draining stderr so the child never blocks on a full pipe.
				go func() {
					for range lineCh {
					}
				}()
				return cmd, "http://" + addr
			}
		case <-deadline:
			t.Fatal("daemon did not announce its address in time")
		}
	}
}

// TestDaemonEndToEndAndGracefulDrain boots the real binary, round-trips a
// sequence through it, then SIGTERMs it and expects a clean exit 0.
func TestDaemonEndToEndAndGracefulDrain(t *testing.T) {
	cmd, base := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	input := synth.Profile{Length: 4000, GC: 0.4, RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 64}.GenerateASCII(11)
	resp, err = http.Post(base+"/compress?ram_mb=2048&cpu_mhz=2100&bw_mbps=5", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, frame)
	}
	if resp.Header.Get("X-Dnacomp-Codec") == "" {
		t.Error("no codec header on compress response")
	}

	resp, err = http.Post(base+"/decompress", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(restored, input) {
		t.Fatalf("round trip through the daemon failed: HTTP %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
}

// TestFleetModeFlagsValidated: fleet flags that cannot build a fleet are
// usage errors (exit 2), reported before the daemon claims to serve.
func TestFleetModeFlagsValidated(t *testing.T) {
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-fleet-fault-rate", "0.2"},                       // fault rate without shards
		{"-fleet-replication", "3"},                        // replication without shards
		{"-fleet-shards", "4", "-fleet-fault-rate", "1.5"}, // rate outside [0,1)
	} {
		out, err := exec.Command(bin, append(args, "-model", testModel(t))...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, out)
		}
	}
}

// TestFleetModeEndToEnd boots the real binary with a replicated fleet
// behind the named-container store, round-trips a stored container, and
// checks /metrics exposes the dna_fleet_* health series.
func TestFleetModeEndToEnd(t *testing.T) {
	cmd, base := startDaemon(t, "-fleet-shards", "5", "-fleet-replication", "3")

	input := synth.Profile{Length: 3000, GC: 0.45, RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 64}.GenerateASCII(13)
	resp, err := http.Post(base+"/compress?codec=twobit&name=fleetseq", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress into fleet store: HTTP %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/decompress?name=fleetseq")
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(restored, input) {
		t.Fatalf("fleet-stored round trip failed: HTTP %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"dna_fleet_ops_total", "dna_fleet_shard_state", "dna_fleet_quorum_ms"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s in fleet mode", want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fleet-mode daemon exited uncleanly after SIGTERM: %v", err)
	}
}

// TestLoadgenSelfMode: the one-command smoke the Makefile serve gate runs —
// an in-process daemon driven by the deterministic harness, reporting
// complete accounting as JSON on stdout.
func TestLoadgenSelfMode(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-model", testModel(t), "-loadgen", "self", "-requests", "12", "-conc", "3", "-seed", "5", "-min-bases", "256", "-max-bases", "1024")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("loadgen self: %v\nstderr: %s", err, stderr.String())
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.String())
	}
	if rep.Units != 12 {
		t.Errorf("units = %d, want 12", rep.Units)
	}
	if rep.Completed+rep.Rejected+rep.Failed != rep.Calls {
		t.Fatalf("accounting broken: %+v", rep)
	}
	if rep.Failed != 0 || rep.Mismatches != 0 {
		t.Fatalf("loadgen reported failures: %+v (%v)", rep, rep.Errors)
	}
}
