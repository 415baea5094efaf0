// Package rush is a full reproduction of "Resource Utilization Aware Job
// Scheduling to Mitigate Performance Variability" (Nichols, Marathe,
// Shoga, Gamblin, Bhatele — IPDPS 2022): an end-to-end pipeline that
// collects longitudinal proxy-application performance data against a
// simulated HPC cluster, trains machine-learning models to predict
// run-time variability from system counters, and uses those predictions
// inside an FCFS+EASY scheduler (RUSH) to delay jobs that would vary.
//
// The package is a façade over the internal implementation; everything a
// downstream user needs is re-exported here:
//
//   - Collect runs the data-collection campaign (Section III).
//   - CompareModels and TrainPredictor reproduce model selection and the
//     deployed three-class predictor (Section IV-A, Figure 3). The
//     Model* constants name the paper's four candidates — ExtraTrees,
//     DecisionForest, KNN, AdaBoost — and nothing else.
//   - RunExperiment and RunTrial execute the Table II scheduling
//     experiments under FCFS+EASY and RUSH (Sections IV-B, VI, VII).
//     Trials fan out across a bounded worker pool — set
//     ExperimentConfig.Workers (0 = GOMAXPROCS, 1 = serial); every
//     worker count produces byte-identical results (see
//     ARCHITECTURE.md for the determinism contract).
//   - The Report* functions render every figure and table of the paper's
//     evaluation from those results. Each writes to an io.Writer and
//     returns the first write error.
//
// A minimal end-to-end run:
//
//	res, _ := rush.Collect(rush.CollectConfig{Days: 30, Seed: 1, Incident: true})
//	pred, _ := rush.TrainPredictor(res.JobScope, rush.ModelAdaBoost, nil, 1)
//	spec, _ := rush.SpecByName("ADAA")
//	cmp, _ := rush.RunExperiment(spec, pred, 5, 1, rush.ExperimentConfig{})
//	_ = rush.ReportVariation(os.Stdout, cmp, rush.BaselineStats(cmp.Baseline))
//
// # Observability
//
// Setting ExperimentConfig.Trace records a structured JSONL event
// stream per trial (job lifecycle, gate decisions with the predicted
// class and fail-open reason, breaker transitions, node churn) into
// Trial.Trace; ExperimentConfig.Metrics snapshots per-trial counters
// and histograms into Trial.Metrics, rendered with ReportMetrics. Both
// are deterministic — byte-identical at any Workers value — and free
// when disabled: the instrumented hot paths run with zero allocations
// and unchanged scheduling decisions. Lower-level users can attach an
// Observer (NewObserver over a Tracer and/or MetricsRegistry) directly
// through the internal scheduler's Config.
//
// # Scheduler error handling
//
// The scheduler validates submissions eagerly, but most scheduling
// work happens inside simulation event callbacks where no caller can
// receive an error. Internal failures there are sticky: the scheduler
// records the first one, stops starting jobs, and surfaces it via its
// Err method. RunTrial and RunExperiment check Err after draining and
// propagate it, so façade users only see it as a returned error.
package rush

import (
	"io"
	"net"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/experiments"
	"rush/internal/faults"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/parallel"
	"rush/internal/sched"
	"rush/internal/serve"
	"rush/internal/stats"
	"rush/internal/workload"
)

// Cluster and application modelling.
type (
	// Topology describes the simulated machine (nodes, pod size, cores).
	Topology = cluster.Topology
	// AppProfile is one proxy application's simulation profile.
	AppProfile = apps.Profile
	// AppClass is the compute/network/io workload label.
	AppClass = apps.Class
	// NoiseConfig configures the all-to-all noise job.
	NoiseConfig = apps.Noise
)

// Quartz returns the full 2,988-node reference topology.
func Quartz() Topology { return cluster.Quartz() }

// Pod512 returns the paper's 512-node experiment reservation.
func Pod512() Topology { return cluster.Pod512() }

// Apps returns the seven proxy-application profiles.
func Apps() []AppProfile { return apps.Defaults() }

// AppNames returns the proxy application names in canonical order.
func AppNames() []string { return apps.Names() }

// DefaultNoise returns the experiments' noise-job configuration.
func DefaultNoise() NoiseConfig { return apps.DefaultNoise() }

// Data collection and datasets.
type (
	// CollectConfig controls the longitudinal collection campaign.
	CollectConfig = core.CollectConfig
	// AmbientConfig shapes the campaign's background contention.
	AmbientConfig = core.AmbientConfig
	// CollectResult carries the job-scope and all-scope datasets.
	CollectResult = core.CollectResult
	// Dataset is a Table I feature dataset.
	Dataset = dataset.Dataset
	// Sample is one proxy-application run.
	Sample = dataset.Sample
	// AppStat summarizes one application's run-time distribution.
	AppStat = dataset.AppStat
)

// NumFeatures is the Table I feature-vector width (282).
const NumFeatures = dataset.NumFeatures

// Label values of the variability classifier.
const (
	LabelNone      = dataset.LabelNone
	LabelLittle    = dataset.LabelLittle
	LabelVariation = dataset.LabelVariation
)

// Collect runs the data-collection campaign.
func Collect(cfg CollectConfig) (*CollectResult, error) { return core.Collect(cfg) }

// FeatureNames returns the 282 feature column names in vector order.
func FeatureNames() []string { return dataset.FeatureNames() }

// ReadDatasetCSV parses a dataset written with Dataset.WriteCSV.
var ReadDatasetCSV = dataset.ReadCSV

// Models and training.
type (
	// Classifier is a trained variability model.
	Classifier = mlkit.Classifier
	// ModelName names one of the four candidate models.
	ModelName = core.ModelName
	// ModelScore is one Figure 3 bar.
	ModelScore = core.ModelScore
	// Predictor is the deployed model plus reference statistics.
	Predictor = core.Predictor
)

// The four candidate models of Figure 3.
const (
	ModelExtraTrees     = core.ModelExtraTrees
	ModelDecisionForest = core.ModelDecisionForest
	ModelKNN            = core.ModelKNN
	ModelAdaBoost       = core.ModelAdaBoost
)

// AllModels lists the candidate models in Figure 3 order.
func AllModels() []ModelName { return core.AllModels() }

// TemporalFold is one train-on-past / test-on-future evaluation.
type TemporalFold = core.TemporalFold

// TemporalValidation evaluates a model with sliding
// train-on-past/test-on-future splits — the deployment-honest protocol.
func TemporalValidation(ds *Dataset, name ModelName, minTrainDays, testDays, stepDays float64, seed int64) ([]TemporalFold, error) {
	return core.TemporalValidation(ds, name, minTrainDays, testDays, stepDays, seed)
}

// NewModel constructs an untrained candidate model by name.
func NewModel(name ModelName, seed int64) (Classifier, error) { return core.NewModel(name, seed) }

// CompareModels cross-validates all four candidates (Figure 3).
func CompareModels(ds *Dataset, scope string, seed int64) ([]ModelScore, error) {
	return core.CompareModels(ds, scope, seed)
}

// SelectBest picks the highest-F1 score row.
func SelectBest(scores []ModelScore) (ModelScore, error) { return core.SelectBest(scores) }

// TrainPredictor trains the deployed three-class model.
func TrainPredictor(ds *Dataset, name ModelName, trainApps []string, seed int64) (*Predictor, error) {
	return core.TrainPredictor(ds, name, trainApps, seed)
}

// LoadPredictor reads a predictor saved with Predictor.Save.
func LoadPredictor(data []byte) (*Predictor, error) { return core.LoadPredictor(data) }

// SaveModel and LoadModel serialize bare classifiers.
var (
	SaveModel = mlkit.SaveModel
	LoadModel = mlkit.LoadModel
)

// Feature selection.
type (
	// RFEConfig controls recursive feature elimination.
	RFEConfig = mlkit.RFEConfig
	// RFEResult is an elimination trajectory and the selected subset.
	RFEResult = mlkit.RFEResult
)

// RunRFE performs recursive feature elimination for the named model on
// the dataset's binary variation labels (the paper's feature-selection
// procedure).
func RunRFE(ds *Dataset, name ModelName, cfg RFEConfig) (RFEResult, error) {
	if _, err := core.NewModel(name, cfg.Seed); err != nil {
		return RFEResult{}, err
	}
	return mlkit.RFE(func() mlkit.Classifier {
		m, _ := core.NewModel(name, cfg.Seed)
		return m
	}, ds.X(), ds.BinaryLabels(), cfg)
}

// Scheduling experiments.
type (
	// ExperimentSpec is one Table II experiment definition.
	ExperimentSpec = workload.Spec
	// ExperimentConfig controls the experiment environment.
	ExperimentConfig = experiments.Config
	// Policy names a scheduling policy under test.
	Policy = experiments.Policy
	// Trial is one workload execution.
	Trial = experiments.Trial
	// JobRecord is one job's outcome.
	JobRecord = experiments.JobRecord
	// Comparison pairs baseline and RUSH trials of one experiment.
	Comparison = experiments.Comparison
	// RunTimeSummary describes a run-time distribution.
	RunTimeSummary = stats.Summary
)

// The scheduling policies: the paper's pair plus the canary-heuristic
// comparison gate.
const (
	PolicyBaseline = experiments.Baseline
	PolicyRUSH     = experiments.RUSH
	PolicyCanary   = experiments.Canary
)

// TableII returns the five experiment specifications.
func TableII() []ExperimentSpec { return workload.TableII() }

// SpecByName returns a Table II spec by name (ADAA, ADPA, PDPA, WS, SS).
func SpecByName(name string) (ExperimentSpec, error) { return workload.SpecByName(name) }

// RunTrial executes one workload under one policy.
func RunTrial(spec ExperimentSpec, policy Policy, pred *Predictor, seed int64, cfg ExperimentConfig) (*Trial, error) {
	return experiments.RunTrial(spec, policy, pred, seed, cfg)
}

// RunExperiment runs paired baseline/RUSH trials. Trials execute
// concurrently under cfg.Workers (0 = GOMAXPROCS, 1 = serial) and merge
// in trial order, so the comparison is byte-identical at any worker
// count. trials must be positive; pass DefaultTrials for the paper's
// count.
func RunExperiment(spec ExperimentSpec, pred *Predictor, trials int, baseSeed int64, cfg ExperimentConfig) (*Comparison, error) {
	return experiments.RunExperiment(spec, pred, trials, baseSeed, cfg)
}

// DefaultTrials is the paper's per-policy repetition count.
const DefaultTrials = experiments.DefaultTrials

// Long-horizon SWF replay: stream a Parallel-Workloads-Archive trace
// through the simulator in bounded memory.
type (
	// SWFOptions controls how an SWF trace maps onto the simulator.
	SWFOptions = workload.SWFOptions
	// JobStream yields submittable jobs lazily in submit order.
	JobStream = workload.JobStream
	// ReplaySummary is a streaming replay's O(1)-size result.
	ReplaySummary = experiments.ReplaySummary
	// Welford is the streaming mean/variance/max accumulator used by
	// ReplaySummary's per-job aggregates.
	Welford = experiments.Welford
)

// NewSWFStream returns a lazy job stream reading SWF records from r.
func NewSWFStream(r io.Reader, opts SWFOptions) JobStream { return workload.NewSWFStream(r, opts) }

// OpenSWF opens an SWF trace file for streaming, transparently wrapping
// gzip when the path ends in ".gz".
func OpenSWF(path string) (io.ReadCloser, error) { return workload.OpenSWF(path) }

// ReplayStream executes a lazily produced job stream under one policy,
// keeping memory bounded regardless of trace length: jobs feed in
// through a single re-armed event, completions fold into streaming
// aggregates, and telemetry history is pruned to a rolling window.
func ReplayStream(name string, stream JobStream, policy Policy, pred *Predictor, seed int64, cfg ExperimentConfig) (*ReplaySummary, error) {
	return experiments.ReplayStream(name, stream, policy, pred, seed, cfg)
}

// Workers resolves a requested worker count the way every Workers
// config field and -workers flag does: n when positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int { return parallel.Workers(n) }

// Fault injection (robustness evaluation).
type (
	// FaultConfig sets seeded fault-injection rates: node failures,
	// telemetry dropouts, predictor outages. The zero value injects
	// nothing and leaves runs bit-identical to clean ones.
	FaultConfig = faults.Config
	// FaultScenario names one fault configuration of a robustness sweep.
	FaultScenario = experiments.FaultScenario
	// FaultRow is one scenario's paired baseline/RUSH comparison.
	FaultRow = experiments.FaultRow
)

// DefaultFaultScenarios returns the standard robustness sweep.
func DefaultFaultScenarios() []FaultScenario { return experiments.DefaultFaultScenarios() }

// FaultMatrix runs a workload under each fault scenario and returns one
// paired comparison per row.
func FaultMatrix(spec ExperimentSpec, pred *Predictor, scenarios []FaultScenario, trials int, baseSeed int64, cfg ExperimentConfig) ([]FaultRow, error) {
	return experiments.FaultMatrix(spec, pred, scenarios, trials, baseSeed, cfg)
}

// Evaluation metrics (Section VI-C).
var (
	// BaselineStats derives per-app reference statistics from baseline trials.
	BaselineStats = experiments.BaselineStats
	// MeanVariationCounts averages per-app variation counts across trials.
	MeanVariationCounts = experiments.MeanVariationCounts
	// TotalVariation sums variation counts over apps (the 17 -> 4 headline).
	TotalVariation = experiments.TotalVariation
	// RunTimesByApp pools run times per application.
	RunTimesByApp = experiments.RunTimesByApp
	// SummaryByApp summarizes run-time distributions per application.
	SummaryByApp = experiments.SummaryByApp
	// MaxRunTimeImprovement computes Figure 9's percent improvements.
	MaxRunTimeImprovement = experiments.MaxRunTimeImprovement
	// MeanWaitByApp averages queue waits per application.
	MeanWaitByApp = experiments.MeanWaitByApp
	// MeanMakespan averages trial makespans.
	MeanMakespan = experiments.MeanMakespan
	// MeanUtilization averages busy node-seconds over capacity.
	MeanUtilization = experiments.MeanUtilization
)

// Observability: structured event tracing and per-trial metrics.
type (
	// Observer bundles a Tracer and a MetricsRegistry behind one
	// nil-able handle; nil means fully disabled at zero cost.
	Observer = obs.Observer
	// Tracer encodes TraceEvents as deterministic JSONL.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// MetricsRegistry holds one trial's named counters, gauges, and
	// histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is an immutable, name-sorted view of a registry
	// (embedded in Trial.Metrics).
	MetricsSnapshot = obs.Snapshot
)

// NewTracer returns a tracer writing deterministic JSONL to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewBatchedTracer returns a tracer that buffers encoded events and
// writes them to w in large batches; call Flush before reading the
// output. The byte stream is identical to NewTracer's.
func NewBatchedTracer(w io.Writer) *Tracer { return obs.NewBatchedTracer(w) }

// NewMetricsRegistry returns an empty per-trial metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewObserver bundles the two observation channels; either may be nil,
// and with both nil it returns the disabled (nil) observer.
func NewObserver(t *Tracer, m *MetricsRegistry) *Observer { return obs.New(t, m) }

// MergeSnapshots sums counters and histogram buckets across snapshots;
// gauges keep their maximum.
var MergeSnapshots = obs.Merge

// Report renderers: one per paper figure/table. Each writes to an
// io.Writer and returns the first write error.
var (
	ReportFigure1        = experiments.ReportFigure1
	ReportTableI         = experiments.ReportTableI
	ReportFigure3        = experiments.ReportFigure3
	ReportTableII        = experiments.ReportTableII
	ReportVariation      = experiments.ReportVariation
	ReportRunTimeDist    = experiments.ReportRunTimeDist
	ReportScalingDist    = experiments.ReportScalingDist
	ReportMaxImprovement = experiments.ReportMaxImprovement
	ReportMakespan       = experiments.ReportMakespan
	ReportWaitTimes      = experiments.ReportWaitTimes
	ReportFaults         = experiments.ReportFaults
	ReportMetrics        = experiments.ReportMetrics
)

// Serving: the rush-serve gate-prediction daemon and its embeddable
// pieces. See internal/serve's package documentation for the wire
// protocol specification and the compatibility rule.
type (
	// GateSnapshot is the immutable decision state (model + telemetry
	// aggregates + reference statistics) the gate and the serving daemon
	// evaluate against. Snapshots are published atomically with a
	// monotonically increasing Epoch; decisions against one snapshot are
	// pure and lock-free.
	GateSnapshot = sched.Snapshot
	// ServeConfig configures a serving daemon (model, thresholds,
	// backpressure bound, batching window).
	ServeConfig = serve.Config
	// ServeServer is the gate-prediction daemon: it loads a predictor,
	// ingests telemetry, and answers decisions over the versioned
	// length-prefixed JSON protocol on TCP or a unix socket.
	ServeServer = serve.Server
	// ServeClient is a synchronous client for the serving protocol.
	ServeClient = serve.Client
	// ServeRequest and ServeResponse are the protocol's frame bodies.
	ServeRequest = serve.Request
	// ServeResponse is one server frame.
	ServeResponse = serve.Response
	// RemoteGate is a sched.Gate that delegates its decisions to a
	// serving daemon with the two-phase check/eval exchange, preserving
	// byte-identical parity with the in-process RUSH gate and failing
	// open if the daemon is unreachable.
	RemoteGate = serve.Gate
)

// ServeProtoVersion is the wire protocol version spoken by this build;
// within one version, protocol evolution is additive only.
const ServeProtoVersion = serve.ProtoVersion

// NewServeServer constructs a serving daemon from a configuration; the
// returned server answers Handle calls immediately and network clients
// once attached to a listener via Serve(ServeListen(addr)).
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.NewServer(cfg) }

// ServeListen opens the daemon's listener: "unix:/path/sock" for a unix
// domain socket, anything else as a TCP address.
func ServeListen(addr string) (net.Listener, error) { return serve.Listen(addr) }

// DialServe connects a client to a serving daemon ("unix:/path/sock" or
// a TCP address).
func DialServe(addr string) (*ServeClient, error) { return serve.Dial(addr) }
