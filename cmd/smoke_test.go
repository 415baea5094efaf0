// Package cmd_test smoke-tests the six commands at their CLI surface:
// every binary builds, the three simulation drivers exit 0 on a tiny
// configuration with output that does not depend on -workers, and bad
// -topo values, non-finite fault and canary rates and run limits, the
// retired path-selection, drift, lifecycle, backfill, batching, CSV,
// temporal-validation and decision-scope flags, an SWF URL and the
// retired fifth model are rejected, and rush-collect prints the same
// summary, in name order, twice.
// It also builds and runs examples/quickstart, the one Go-level driver
// of the pipeline, so that cannot stop working unnoticed either, and
// asks a running rush-serve for one decision.
package cmd_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"rush/internal/dataset"
	"rush/internal/obs"
	"rush/internal/serve"
)

var commands = []string{"rush-collect", "rush-experiments", "rush-replay", "rush-serve", "rush-sim", "rush-train"}

// buildAll compiles every command and examples/quickstart into a temp
// directory and returns it.
func buildAll(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...", "../examples/quickstart").CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./... ../examples/quickstart in cmd: %v\n%s", err, out)
	}
	for _, name := range append([]string{"quickstart"}, commands...) {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			t.Fatalf("%s was not built: %v", name, err)
		}
	}
	return bin
}

// run executes a built command and returns its stdout, failing the test
// on a non-zero exit.
func run(t *testing.T, bin, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command binaries")
	}
	bin := buildAll(t)
	swf, err := filepath.Abs(filepath.Join("..", "internal", "workload", "testdata", "excerpt.swf"))
	if err != nil {
		t.Fatal(err)
	}

	// Each driver runs at -workers 1 and 4; stdout, and the -trace file
	// where the command has one, must be byte-identical.
	drivers := []struct {
		name   string
		args   []string
		traced bool
	}{
		{"rush-sim", []string{"-experiment", "ADAA", "-policy", "baseline", "-trials", "2"}, true},
		{"rush-replay", []string{"-swf", swf, "-trials", "2"}, true},
		{"rush-experiments", []string{"-days", "4", "-trials", "1"}, false},
	}
	for _, d := range drivers {
		var stdouts, traces [2][]byte
		for i, workers := range []string{"1", "4"} {
			args := append(append([]string{}, d.args...), "-workers", workers)
			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			if d.traced {
				args = append(args, "-trace", tracePath)
			}
			stdouts[i] = run(t, bin, d.name, args...)
			if len(stdouts[i]) == 0 {
				t.Fatalf("%s -workers %s printed nothing", d.name, workers)
			}
			if d.traced {
				if traces[i], err = os.ReadFile(tracePath); err != nil || len(traces[i]) == 0 {
					t.Fatalf("%s -workers %s: trace file: %d bytes, %v", d.name, workers, len(traces[i]), err)
				}
			}
		}
		if !bytes.Equal(stdouts[0], stdouts[1]) {
			t.Errorf("%s: stdout differs between -workers 1 and 4", d.name)
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%s: -trace output differs between -workers 1 and 4", d.name)
		}
	}

	// The quickstart prints its two report blocks, the same on every run.
	quick := run(t, bin, "quickstart")
	for _, want := range []string{"ADAA: mean runs with significant variation", "Figure 10: mean makespan"} {
		if !bytes.Contains(quick, []byte(want)) {
			t.Errorf("quickstart output has no %q block:\n%s", want, quick)
		}
	}
	if again := run(t, bin, "quickstart"); !bytes.Equal(quick, again) {
		t.Errorf("quickstart output differs between two runs:\n%s\n---\n%s", quick, again)
	}

	// The flags that used to select between equivalent paths, inject
	// telemetry drift, run the model lifecycle, pick a backfilling
	// discipline other than EASY, size the daemon's inference batches,
	// write per-job CSV, run temporal validation, aggregate a gate
	// decision's counters machine-wide, widen the gate's veto labels or
	// retune the canary are gone.
	retired := map[string][]string{
		"rush-serve": {"-batch-window=200us"},
		"rush-sim": {"-sched-reference", "-engine-reference", "-engine-workers=2",
			"-drift-start=1", "-drift-ramp=1", "-drift-mean-shift=1", "-drift-noise-boost=1", "-drift-tables=x",
			"-lifecycle", "-lifecycle-psi=1", "-lifecycle-canary-fraction=1", "-lifecycle-retrain-every=1",
			"-backfill=conservative", "-csv=x", "-all-nodes-scope",
			"-delay-on-little", "-canary-threshold=2", "-canary-all-classes"},
		"rush-train":       {"-temporal"},
		"rush-experiments": {"-sched-reference", "-engine-reference", "-engine-workers=2", "-drift"},
		"rush-replay":      {"-sched-reference", "-engine-reference", "-engine-workers=2", "-in-memory", "-backfill=conservative"},
	}
	for name, flags := range retired {
		for _, f := range flags {
			out, err := exec.Command(filepath.Join(bin, name), f).CombinedOutput()
			if err == nil || !bytes.Contains(out, []byte("flag provided but not defined")) {
				t.Errorf("%s %s: want an unknown-flag failure, got err=%v\n%.200s", name, f, err, out)
			}
		}
	}
	// The queue order is the one scheduling option left.
	if out := run(t, bin, "rush-sim", "-experiment", "WS", "-policy", "baseline", "-trials", "1", "-sjf"); !bytes.Contains(out, []byte("policy=FCFS+EASY jobs=")) {
		t.Errorf("rush-sim -sjf printed no trial line:\n%s", out)
	}

	// A bad -topo exits 1 with a named error before any simulation,
	// however large the node count.
	badTopos := map[string]string{
		"bogus":                 "bad topology",
		"100,0":                 "non-positive topology field",
		"9223372036854775807,1": "exceeds the limit",
		"3000000000,512":        "exceeds the limit",
	}
	for _, d := range drivers {
		for topo, want := range badTopos {
			wantExit1(t, bin, d.name, append(append([]string{}, d.args...), "-topo", topo), want)
		}
	}

	// A rate that is not a finite number fails every range comparison, so
	// it is rejected by name, before any simulation, and not run into a
	// panic or a silently inert fault.
	badRates := []struct {
		name string
		args []string
		want string
	}{
		{"rush-sim", []string{"-policy", "baseline", "-node-mttr", "NaN"}, "node MTTR NaN is not a finite number"},
		{"rush-sim", []string{"-policy", "baseline", "-model-outage", "NaN"}, "model outage NaN is not a finite number"},
		{"rush-sim", []string{"-policy", "baseline", "-telemetry-loss", "NaN"}, "telemetry loss NaN is not a finite number"},
		{"rush-replay", []string{"-swf", swf, "-node-mttr", "NaN"}, "node MTTR NaN is not a finite number"},
		{"rush-replay", []string{"-swf", swf, "-model-outage", "NaN"}, "model outage NaN is not a finite number"},
		{"rush-replay", []string{"-swf", swf, "-max-sim-time", "NaN"}, "max sim time NaN is not a non-negative number"},
		{"rush-replay", []string{"-swf", swf, "-max-sim-time", "-1"}, "max sim time -1 is not a non-negative number"},
		{"rush-replay", []string{"-swf", swf, "-mem-sample", "NaN"}, "mem sample NaN is not a finite non-negative number"},
		{"rush-replay", []string{"-swf", swf, "-mem-sample", "-1"}, "mem sample -1 is not a finite non-negative number"},
		{"rush-replay", []string{"-swf", swf, "-mem-sample", "+Inf"}, "mem sample +Inf is not a finite non-negative number"},
	}
	for _, r := range badRates {
		wantExit1(t, bin, r.name, append([]string{"-trials", "1"}, r.args...), r.want)
	}

	// -swf names a file: a URL is opened as a path, never fetched.
	wantExit1(t, bin, "rush-replay", []string{"-swf", "http://127.0.0.1:9/t.swf"}, "open http://127.0.0.1:9/t.swf: no such file or directory")

	// Gradient boosting is gone: its name trains nothing and a predictor
	// file of its kind loads as any unknown kind does.
	dir := t.TempDir()
	csv := filepath.Join(dir, "jobscope.csv")
	collected := run(t, bin, "rush-collect", "-days", "2", "-out", csv)
	if again := run(t, bin, "rush-collect", "-days", "2", "-out", filepath.Join(dir, "again.csv")); !bytes.Equal(collected, again) {
		t.Errorf("rush-collect output differs between two runs:\n%s\n---\n%s", collected, again)
	}
	// More nodes per run than the machine has is an error, not a campaign
	// of zero samples.
	wantExit1(t, bin, "rush-collect", []string{"-days", "2", "-nodes", "5000", "-out", filepath.Join(dir, "big.csv")},
		"5000 nodes per run exceed the 768-node machine")
	// The per-application summary lines come in name order.
	var apps []string
	for _, line := range strings.Split(string(collected), "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(f[1], "n=") {
			apps = append(apps, f[0])
		}
	}
	if len(apps) < 2 || !sort.StringsAreSorted(apps) {
		t.Errorf("rush-collect summary lines not in name order: %v\n%s", apps, collected)
	}
	gone := filepath.Join(dir, "gone.json")
	if err := os.WriteFile(gone, []byte(`{"model_name":"GradientBoosting","model":{"kind":"gbm","gbm":{"classes":[0,1,2]}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rejected := []struct {
		name string
		args []string
		want string
	}{
		{"rush-train", []string{"-data", csv, "-model", "GradientBoosting", "-out", filepath.Join(dir, "p.json")}, "unknown model"},
		{"rush-sim", []string{"-experiment", "ADAA", "-policy", "rush", "-trials", "1", "-predictor", gone}, `unknown model kind "gbm"`},
	}
	for _, r := range rejected {
		out, err := exec.Command(filepath.Join(bin, r.name), r.args...).CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte(r.want)) {
			t.Errorf("%s %s: want a failure saying %q, got err=%v\n%.300s", r.name, strings.Join(r.args, " "), r.want, err, out)
		}
	}

	serveSmoke(t, bin, csv)
}

// serveSmoke trains a predictor on csv, starts rush-serve on a unix
// socket, asks it for one decision over the wire and stops it with
// SIGTERM, on which it must print its counters and exit 0. The daemon
// runs every inference on the asking connection's goroutine, so the
// stats report that one inference as one batch of one.
func serveSmoke(t *testing.T, bin, csv string) {
	dir := t.TempDir()
	pred := filepath.Join(dir, "predictor.json")
	run(t, bin, "rush-train", "-data", csv, "-out", pred)
	addr := "unix:" + filepath.Join(dir, "s.sock")
	daemon := exec.Command(filepath.Join(bin, "rush-serve"), "-predictor", pred, "-listen", addr)
	var logs bytes.Buffer
	daemon.Stderr = &logs
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	var client *serve.Client
	var err error
	for deadline := time.Now().Add(10 * time.Second); client == nil; time.Sleep(20 * time.Millisecond) {
		if client, err = serve.Dial(addr); err != nil && time.Now().After(deadline) {
			t.Fatalf("rush-serve never listened on %s: %v\n%s", addr, err, logs.Bytes())
		}
	}
	feats := make(serve.FeatureVector, dataset.NumFeatures)
	resp, err := client.Do(&serve.Request{Op: serve.OpDecide, Now: 1, App: "AMG", Feats: feats})
	if err != nil || resp.Status != serve.StatusOK || (resp.Decision != obs.DecisionStart && resp.Decision != obs.DecisionVeto) {
		t.Fatalf("rush-serve decide: %+v, %v", resp, err)
	}
	if resp, err = client.Do(&serve.Request{Op: serve.OpStats}); err != nil || resp.Stats["serve_batches_total"] != 1 || resp.Stats["serve_batch_max_size"] != 1 {
		t.Fatalf("rush-serve stats after one inference: %+v, %v", resp, err)
	}
	client.Close()
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil || !bytes.Contains(logs.Bytes(), []byte("serve_decisions_total 1")) {
		t.Fatalf("rush-serve after SIGTERM: %v\n%s", err, logs.Bytes())
	}
}

// wantExit1 runs a built command that must exit 1 with want in its output
// and nothing on stdout, which a run that got as far as a trial prints to.
func wantExit1(t *testing.T, bin, name string, args []string, want string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !bytes.Contains(stderr.Bytes(), []byte(want)) || stdout.Len() != 0 {
		t.Errorf("%s %s: want exit 1 saying %q, got err=%v\nstdout: %.200s\nstderr: %.300s",
			name, strings.Join(args, " "), want, err, stdout.Bytes(), stderr.Bytes())
	}
}
