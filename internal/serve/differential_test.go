package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"path/filepath"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/faults"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/serve"
	"rush/internal/sim"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// sharedPred trains one predictor for the whole test package (training is
// the slow step; every test shares it read-only).
var sharedPred *core.Predictor

func servePredictor(t *testing.T) *core.Predictor {
	t.Helper()
	if sharedPred == nil {
		res, err := core.Collect(core.CollectConfig{Days: 30, Seed: 42, Incident: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.TrainPredictor(res.JobScope, core.ModelAdaBoost, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		sharedPred = p
	}
	return sharedPred
}

// startServer spins up a daemon on a unix socket with the given config
// and returns a connected client. Both are torn down with the test.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "serve.sock")
	ln, err := serve.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	client, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return srv, client
}

// runServedTrial replicates experiments.RunTrialJobs' environment —
// same engine seeding, noise job, fault injector derivation, telemetry
// pruning, scheduler defaults, and trace header — with the remote
// serve.Gate in place of the in-process RUSH gate. Any environmental
// drift between this runner and RunTrialJobs shows up as a trace diff in
// the differential test, which is the point.
func runServedTrial(t *testing.T, name string, jobs []workload.SubmittedJob, client *serve.Client, fcfg faults.Config) ([]byte, *serve.Gate) {
	t.Helper()
	trace, gate, _ := driveServedTrial(t, name, jobs, client, fcfg, nil)
	if gate.Err != nil {
		t.Fatalf("gate transport error: %v", gate.Err)
	}
	return trace, gate
}

// driveServedTrial is runServedTrial without the demand that the daemon
// outlives the trial: arm, when non-nil, schedules the test's own events
// on the trial's engine before the first job is submitted.
func driveServedTrial(t *testing.T, name string, jobs []workload.SubmittedJob, client *serve.Client, fcfg faults.Config, arm func(*sim.Engine)) ([]byte, *serve.Gate, *obs.Snapshot) {
	t.Helper()
	const seed = 11
	eng := sim.New(seed)
	traceBuf := &bytes.Buffer{}
	tracer := obs.NewTracer(traceBuf)
	reg := obs.NewRegistry()
	observer := obs.New(tracer, reg)
	observer.Emit(obs.Event{Time: 0, Kind: obs.KindTrial, Experiment: name, Policy: string(experiments.RUSH), Seed: seed})

	m, err := machine.New(eng, cluster.Pod512())
	if err != nil {
		t.Fatal(err)
	}
	noise, err := m.StartNoise(apps.DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Attach(m, fcfg, eng.Source().Derive("faults"))
	if err != nil {
		t.Fatal(err)
	}
	m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)

	gate := serve.NewGate(m, client)
	gate.Down = inj.ModelDown()
	s, err := sched.NewScheduler(sched.Config{
		Machine: m, Primary: sched.FCFS{}, Backfill: sched.FCFS{},
		Gate: gate, Observer: observer, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(eng)
	}
	for _, sj := range jobs {
		sj := sj
		eng.At(sj.SubmitAt, func() { s.Submit(sj.Job) })
	}
	for len(s.Completed()) < len(jobs) {
		if eng.Now() > 6*3600 {
			t.Fatalf("served trial exceeded 6 simulated hours (%d/%d jobs)", len(s.Completed()), len(jobs))
		}
		if !eng.Step() {
			t.Fatalf("event queue drained with %d/%d jobs incomplete", len(s.Completed()), len(jobs))
		}
	}
	noise.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	return traceBuf.Bytes(), gate, reg.Snapshot()
}

// stripBreakerEvents drops circuit-breaker state-transition lines from a
// trace. The served deployment's breaker lives in the server process and
// has no trial observer, so breaker transitions are the one event kind
// with no served counterpart; every other line must match byte for byte.
func stripBreakerEvents(trace []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(trace, []byte("\n")) {
		if len(line) == 0 || bytes.Contains(line, []byte(`"kind":"breaker"`)) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// diffTraces reports the first differing line, with context, so a parity
// break names the exact decision that diverged.
func diffTraces(t *testing.T, scenario string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s: trace diverges at line %d:\n in-process: %s\n     served: %s", scenario, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: trace lengths differ: in-process %d lines, served %d lines", scenario, len(wl), len(gl))
}

// TestServedDecisionsMatchInProcess is the parity pin for the serving
// redesign: a full workload scheduled through the daemon — two-phase
// check/eval over the wire protocol, feature vectors (NaN entries
// included) crossing as JSON, the breaker and fail-open pipeline running
// server-side — produces a trace byte-identical to the in-process RUSH
// gate, under clean conditions and under injected predictor outages and
// telemetry loss (the fail-open and NaN-encoding paths).
func TestServedDecisionsMatchInProcess(t *testing.T) {
	pred := servePredictor(t)
	spec, err := workload.SpecByName("ADAA")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	scenarios := []struct {
		name   string
		faults faults.Config
	}{
		{"clean", faults.Config{}},
		{"model-outage", faults.Config{ModelOutage: 0.3, ModelOutagePeriod: 300}},
		{"outage-and-telemetry-loss", faults.Config{ModelOutage: 0.3, ModelOutagePeriod: 300, TelemetryLoss: 0.2}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			inJobs, err := workload.Generate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			inproc, err := experiments.RunTrialJobs(spec.Name, inJobs, experiments.RUSH, pred, seed,
				experiments.Config{Trace: true, Faults: sc.faults})
			if err != nil {
				t.Fatal(err)
			}

			// Fresh server per scenario: the breaker must start closed,
			// exactly like each in-process trial's.
			_, client := startServer(t, serve.Config{Model: pred.Model})
			servedJobs, err := workload.Generate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			served, gate := runServedTrial(t, spec.Name, servedJobs, client, sc.faults)

			diffTraces(t, sc.name, stripBreakerEvents(inproc.Trace), served)
			if gate.Evaluations != inproc.GateEvaluations || gate.Vetoes != inproc.GateVetoes ||
				gate.ThresholdOverrides != inproc.ThresholdOverrides || gate.Degraded != inproc.GateDegraded {
				t.Fatalf("gate counters diverge: served eval/veto/override/degraded = %d/%d/%d/%d, in-process %d/%d/%d/%d",
					gate.Evaluations, gate.Vetoes, gate.ThresholdOverrides, gate.Degraded,
					inproc.GateEvaluations, inproc.GateVetoes, inproc.ThresholdOverrides, inproc.GateDegraded)
			}
			if sc.faults.ModelOutage > 0 && gate.Degraded == 0 {
				t.Fatal("outage scenario exercised no fail-open decision")
			}
			if sc.name == "clean" && gate.Vetoes == 0 {
				t.Fatal("clean scenario exercised no veto")
			}
		})
	}
}

// TestGateFailsOpenWhenDaemonDies closes the daemon in the middle of a
// served trial. The queue must drain as under the baseline, and the trial
// must say what happened: the decision that hit the dead connection and
// every one after it is traced fail-open with reason model-down, and the
// gate's Degraded count and the per-reason metric agree with the trace. A
// predictor that died must not read like a clean baseline run.
func TestGateFailsOpenWhenDaemonDies(t *testing.T) {
	pred := servePredictor(t)
	spec, err := workload.SpecByName("ADAA")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv, client := startServer(t, serve.Config{Model: pred.Model})
	const diesAt = 600.0
	trace, gate, metrics := driveServedTrial(t, spec.Name, jobs, client, faults.Config{}, func(eng *sim.Engine) {
		eng.At(diesAt, func() { srv.Close() })
	})
	if gate.Err == nil {
		t.Fatal("the daemon died mid-trial and the gate recorded no transport error")
	}

	var evaluatedBefore, failedOpen int
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"kind":"gate"`)) {
			continue
		}
		var ev struct {
			T        float64 `json:"t"`
			Decision string  `json:"decision"`
			Reason   string  `json:"reason"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("gate line is not JSON: %v\n%s", err, line)
		}
		switch {
		case ev.T < diesAt && ev.Decision == obs.DecisionFailOpen:
			t.Fatalf("fail-open before the daemon died: %s", line)
		case ev.T < diesAt:
			evaluatedBefore++
		case ev.Decision != obs.DecisionFailOpen || ev.Reason != obs.ReasonModelDown:
			t.Fatalf("decision after the daemon died is not a model-down fail-open: %s", line)
		default:
			failedOpen++
		}
	}
	if evaluatedBefore == 0 || failedOpen == 0 {
		t.Fatalf("trial did not straddle the daemon's death: %d decisions before, %d fail-opens after", evaluatedBefore, failedOpen)
	}
	if gate.Degraded != failedOpen {
		t.Fatalf("Degraded = %d, the trace has %d fail-open lines", gate.Degraded, failedOpen)
	}
	counted := -1.0
	for _, c := range metrics.Counters {
		if c.Name == "gate_fail_open_model_down_total" {
			counted = c.Value
		}
	}
	if counted != float64(failedOpen) {
		t.Fatalf("gate_fail_open_model_down_total = %v, the trace has %d fail-open lines", counted, failedOpen)
	}
}

// TestGateBooksBusyDaemonAsFailOpen pins the other way a daemon can be
// there and still not answer: BUSY degrades the one decision open, booked
// and traced like any fail-open, and does not poison the connection.
func TestGateBooksBusyDaemonAsFailOpen(t *testing.T) {
	near, far := net.Pipe()
	go func() { // a daemon whose decision queue is always full
		br := bufio.NewReader(far)
		for {
			var req serve.Request
			if serve.ReadFrame(br, &req) != nil {
				return
			}
			if serve.WriteFrame(far, &serve.Response{V: serve.ProtoVersion, ID: req.ID, Status: serve.StatusBusy}) != nil {
				return
			}
		}
	}()
	client := serve.NewClient(near)
	defer client.Close()

	m, err := machine.New(sim.New(1), cluster.Pod512())
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	gate := serve.NewGate(m, client)
	gate.Observe(obs.New(obs.NewTracer(&trace), nil))
	alloc, err := m.Alloc.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if !gate.Allow(&sched.Job{ID: 1, App: apps.Defaults()[1]}, alloc) {
		t.Fatal("a busy daemon must fail open")
	}
	if gate.Err != nil || gate.Degraded != 1 {
		t.Fatalf("Err = %v, Degraded = %d; want a live connection and one degraded decision", gate.Err, gate.Degraded)
	}
	want := `"decision":"fail-open","class":-1,"skips":0,"reason":"model-down"`
	if !bytes.Contains(trace.Bytes(), []byte(want)) {
		t.Fatalf("busy decision not traced as a model-down fail-open:\n%s", trace.Bytes())
	}
}
