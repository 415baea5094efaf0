// Package cmd_test smoke-tests the six commands at their CLI surface:
// every binary builds, the three simulation drivers exit 0 on a tiny
// configuration with output that does not depend on -workers, and the
// retired path-selection flags and the retired fifth model are rejected.
// It also builds and runs examples/quickstart, the one Go-level driver
// of the pipeline, so that cannot stop working unnoticed either.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

	// The flags that used to select between equivalent paths are gone.
	retired := map[string][]string{
		"rush-sim":         {"-sched-reference", "-engine-reference", "-engine-workers=2"},
		"rush-experiments": {"-sched-reference", "-engine-reference", "-engine-workers=2"},
		"rush-replay":      {"-sched-reference", "-engine-reference", "-engine-workers=2", "-in-memory"},
	}
	for name, flags := range retired {
		for _, f := range flags {
			out, err := exec.Command(filepath.Join(bin, name), f).CombinedOutput()
			if err == nil || !bytes.Contains(out, []byte("flag provided but not defined")) {
				t.Errorf("%s %s: want an unknown-flag failure, got err=%v\n%.200s", name, f, err, out)
			}
		}
	}

	// Gradient boosting is gone: its name trains nothing and a predictor
	// file of its kind loads as any unknown kind does.
	dir := t.TempDir()
	csv := filepath.Join(dir, "jobscope.csv")
	run(t, bin, "rush-collect", "-days", "2", "-out", csv)
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
}
