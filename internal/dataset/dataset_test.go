package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rush/internal/apps"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

func TestFeatureCountMatchesTableI(t *testing.T) {
	names := FeatureNames()
	if len(names) != 282 || NumFeatures != 282 {
		t.Fatalf("Table I says 282 features, got %d", len(names))
	}
	// Spot-check layout: counters first (min/mean/max triplets), then
	// probes, then the type one-hot.
	if names[0] != "min_sysclassib_port_xmit_data" ||
		names[1] != "mean_sysclassib_port_xmit_data" ||
		names[2] != "max_sysclassib_port_xmit_data" {
		t.Fatalf("counter triplet wrong: %v", names[:3])
	}
	if names[270] != "min_mpibench_send_wait" {
		t.Fatalf("probe block misplaced: %v", names[270])
	}
	if names[279] != "type_compute" || names[281] != "type_io" {
		t.Fatalf("type one-hot misplaced: %v", names[279:])
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func fakeAggregates(v float64) telemetry.Aggregates {
	n := telemetry.NumCounters
	agg := telemetry.Aggregates{
		Min:  make([]float64, n),
		Mean: make([]float64, n),
		Max:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		agg.Min[i] = v
		agg.Mean[i] = v + 1
		agg.Max[i] = v + 2
	}
	return agg
}

func fakeProbes() simnet.ProbeResult {
	return simnet.ProbeResult{
		SendWait:      []float64{1, 2, 3},
		RecvWait:      []float64{4, 5, 6},
		AllReduceWait: []float64{7, 8, 9},
	}
}

func TestBuildFeaturesLayout(t *testing.T) {
	f := BuildFeatures(fakeAggregates(10), fakeProbes(), apps.NetworkIntensive)
	if len(f) != NumFeatures {
		t.Fatalf("len = %d", len(f))
	}
	if f[0] != 10 || f[1] != 11 || f[2] != 12 {
		t.Fatalf("counter triplet wrong: %v", f[:3])
	}
	// Probe block: min/mean/max of send, recv, allreduce.
	p := f[270:279]
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("probe features = %v, want %v", p, want)
		}
	}
	if f[279] != 0 || f[280] != 1 || f[281] != 0 {
		t.Fatalf("one-hot = %v", f[279:])
	}
}

func mkSample(app string, class apps.Class, runtime float64) Sample {
	return Sample{
		App: app, Class: class, Nodes: 16, RunTime: runtime,
		Features: BuildFeatures(fakeAggregates(runtime), fakeProbes(), class),
	}
}

// TestCounterMaskFollowsFeatureLayout checks CounterMask against the
// column names: marking one feature selects exactly the counter its name
// aggregates, and a probe or type feature selects none.
func TestCounterMaskFollowsFeatureLayout(t *testing.T) {
	names, schema := FeatureNames(), telemetry.Schema()
	for f, name := range names {
		read := make([]bool, NumFeatures)
		read[f] = true
		var got []int
		for ci, r := range CounterMask(read) {
			if r {
				got = append(got, ci)
			}
		}
		switch {
		case f >= 3*telemetry.NumCounters && len(got) != 0:
			t.Fatalf("feature %d (%s) selects counters %v", f, name, got)
		case f >= 3*telemetry.NumCounters:
		case len(got) != 1 || !strings.HasSuffix(name, "_"+schema[got[0]].Table+"_"+schema[got[0]].Name):
			t.Fatalf("feature %d (%s) selects counters %v", f, name, got)
		}
	}
}

func TestAddValidates(t *testing.T) {
	var d Dataset
	if err := d.Add(Sample{App: "x", RunTime: 1, Features: []float64{1}}); err == nil {
		t.Fatal("short feature vector should error")
	}
	s := mkSample("x", apps.ComputeIntensive, 0)
	if err := d.Add(s); err == nil {
		t.Fatal("non-positive run time should error")
	}
	s.RunTime = math.NaN()
	if err := d.Add(s); err == nil {
		t.Fatal("NaN run time should error")
	}
	if err := d.Add(mkSample("x", apps.ComputeIntensive, 5)); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("len = %d", d.Len())
	}
}

// buildLabeled creates a dataset where app A has 20 runs at ~100s and a
// couple of big outliers, app B is steady.
func buildLabeled() *Dataset {
	d := &Dataset{}
	for i := 0; i < 20; i++ {
		d.Add(mkSample("A", apps.NetworkIntensive, 100+float64(i%5)))
	}
	d.Add(mkSample("A", apps.NetworkIntensive, 160))
	d.Add(mkSample("A", apps.NetworkIntensive, 170))
	for i := 0; i < 10; i++ {
		d.Add(mkSample("B", apps.ComputeIntensive, 50+float64(i%3)))
	}
	return d
}

func TestZScoresPerApp(t *testing.T) {
	d := buildLabeled()
	zs := d.ZScores()
	// The two outliers must have the largest z-scores.
	if zs[20] < 1.5 || zs[21] < 1.5 {
		t.Fatalf("outlier z-scores too low: %v %v", zs[20], zs[21])
	}
	for i := 0; i < 20; i++ {
		if zs[i] >= 1.5 {
			t.Fatalf("normal run %d has z=%v", i, zs[i])
		}
	}
}

func TestBinaryLabels(t *testing.T) {
	d := buildLabeled()
	labels := d.BinaryLabels()
	pos := 0
	for _, l := range labels {
		if l == 1 {
			pos++
		}
	}
	if pos != 2 {
		t.Fatalf("expected exactly the 2 outliers labelled, got %d", pos)
	}
	if labels[20] != 1 || labels[21] != 1 {
		t.Fatal("outliers not labelled positive")
	}
}

func TestThreeClassLabels(t *testing.T) {
	d := &Dataset{}
	// Tight cluster + one mild outlier + one extreme outlier.
	for i := 0; i < 30; i++ {
		d.Add(mkSample("A", apps.IOIntensive, 100+float64(i%7)))
	}
	d.Add(mkSample("A", apps.IOIntensive, 109)) // mild
	d.Add(mkSample("A", apps.IOIntensive, 140)) // extreme
	labels := d.ThreeClassLabels()
	if labels[31] != LabelVariation {
		t.Fatalf("extreme outlier labelled %d", labels[31])
	}
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	if counts[LabelNone] < 25 {
		t.Fatalf("most runs should be LabelNone: %v", counts)
	}
}

func TestStats(t *testing.T) {
	d := buildLabeled()
	st := d.Stats()
	if len(st) != 2 {
		t.Fatalf("stats apps = %d", len(st))
	}
	a := st["A"]
	if a.N != 22 || a.Min != 100 {
		t.Fatalf("A stats wrong: %+v", a)
	}
	if a.Mean < 100 || a.Mean > 115 {
		t.Fatalf("A mean = %v", a.Mean)
	}
}

func TestLabelWith(t *testing.T) {
	st := map[string]AppStat{"A": {N: 10, Mean: 100, Std: 10, Min: 90}}
	if got := LabelWith(st, "A", 105); got != LabelNone {
		t.Fatalf("z=0.5 labelled %d", got)
	}
	if got := LabelWith(st, "A", 113); got != LabelLittle {
		t.Fatalf("z=1.3 labelled %d", got)
	}
	if got := LabelWith(st, "A", 120); got != LabelVariation {
		t.Fatalf("z=2 labelled %d", got)
	}
	if got := LabelWith(st, "unknown", 500); got != LabelNone {
		t.Fatalf("unknown app labelled %d", got)
	}
}

func TestFilterApps(t *testing.T) {
	d := buildLabeled()
	sub := d.FilterApps("B")
	if sub.Len() != 10 {
		t.Fatalf("filtered len = %d", sub.Len())
	}
	for _, s := range sub.Samples {
		if s.App != "B" {
			t.Fatal("filter leaked wrong app")
		}
	}
	if d.Len() != 32 {
		t.Fatal("filter must not mutate the original")
	}
}

func TestXAndAppNames(t *testing.T) {
	d := buildLabeled()
	x := d.X()
	if len(x) != d.Len() || len(x[0]) != NumFeatures {
		t.Fatalf("X shape wrong: %d x %d", len(x), len(x[0]))
	}
	names := d.AppNames()
	if names[0] != "A" || names[len(names)-1] != "B" {
		t.Fatalf("app names wrong: %v...", names[:2])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := buildLabeled()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip lost samples: %d vs %d", got.Len(), d.Len())
	}
	for i := range d.Samples {
		a, b := d.Samples[i], got.Samples[i]
		if a.App != b.App || a.Class != b.Class || a.Nodes != b.Nodes || a.RunTime != b.RunTime {
			t.Fatalf("sample %d metadata changed: %+v vs %+v", i, a, b)
		}
		for j := range a.Features {
			if a.Features[j] != b.Features[j] {
				t.Fatalf("sample %d feature %d changed", i, j)
			}
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"bogus,header\n",
		strings.Join(append([]string{"app", "class", "nodes", "start", "runtime"}, FeatureNames()...), ",") + "\nOnly,five,fields,here,now\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Unknown class value.
	var buf bytes.Buffer
	d := &Dataset{}
	d.Add(mkSample("A", apps.ComputeIntensive, 10))
	d.WriteCSV(&buf)
	bad := strings.Replace(buf.String(), "compute", "quantum", 1)
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestReadCSVFieldErrors(t *testing.T) {
	var buf bytes.Buffer
	d := &Dataset{}
	d.Add(mkSample("A", apps.NetworkIntensive, 10))
	d.WriteCSV(&buf)
	good := buf.String()
	lines := strings.SplitN(good, "\n", 2)
	header, row := lines[0], strings.TrimRight(lines[1], "\n")

	corrupt := func(col int, v string) string {
		fields := strings.Split(row, ",")
		fields[col] = v
		return header + "\n" + strings.Join(fields, ",") + "\n"
	}
	cases := []string{
		corrupt(2, "notanint"), // nodes
		corrupt(3, "xx"),       // start
		corrupt(4, "xx"),       // runtime
		corrupt(5, "xx"),       // first feature
		corrupt(4, "-5"),       // negative runtime rejected by Add
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
