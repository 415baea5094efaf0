package experiments

import (
	"fmt"

	"rush/internal/apps"
	"rush/internal/core"
	"rush/internal/faults"
	"rush/internal/lifecycle"
	"rush/internal/parallel"
	"rush/internal/workload"
)

// DriftScenario is one way the world can move out from under a deployed
// predictor: a seeded telemetry distribution shift (via the fault
// injector's drift model), an application-mix rotation (jobs submitted
// after AppStart carry inflated contention sensitivities, so realized
// run times — and hence labels — shift while telemetry looks familiar),
// or both.
type DriftScenario struct {
	Name string
	// Faults carries the telemetry drift (and any other fault) config.
	Faults faults.Config
	// AppSeverity, when positive, rotates the application mix: every job
	// submitted at or after AppStart runs apps.Drifted(profile,
	// AppSeverity) instead of its catalog profile.
	AppSeverity float64
	// AppStart is the simulated time the rotation begins.
	AppStart float64
}

// DefaultDriftScenarios is the standard drift sweep: a calm control run,
// a gradual telemetry mean ramp, an abrupt regime change with boosted
// noise, an application-mix rotation (labels shift while telemetry looks
// familiar, so only the label-rate signal can notice), and a compound
// scenario that moves telemetry and labels together — the one world
// where a retrained challenger has both drifted features to learn from
// and drifted outcomes to predict, so the full shadow/canary ladder can
// play out inside a single trial. Onsets sit early because a Table II
// queue makes nearly all of its gate decisions in the first ~22 minutes;
// drift arriving later meets no decisions to detect it with.
func DefaultDriftScenarios() []DriftScenario {
	return []DriftScenario{
		{Name: "calm"},
		{Name: "mean-ramp", Faults: faults.Config{Drift: faults.DriftConfig{
			Start: 300, Ramp: 600, MeanShift: 1.0,
		}}},
		{Name: "regime-change", Faults: faults.Config{Drift: faults.DriftConfig{
			Start: 600, MeanShift: 1.5, NoiseBoost: 0.5,
		}}},
		{Name: "app-rotation", AppSeverity: 4.0, AppStart: 200},
		{Name: "compound", AppSeverity: 3.0, AppStart: 200,
			Faults: faults.Config{Drift: faults.DriftConfig{
				Start: 300, Ramp: 300, MeanShift: 1.0, NoiseBoost: 0.5,
			}}},
	}
}

// trialScale fills lifecycle knobs left at zero with values sized for a
// single Table II trial (~200 gate decisions over ~40 simulated
// minutes) instead of the production defaults, which assume much longer
// decision streams. Explicitly-set fields are left alone.
func trialScale(lc lifecycle.Config) lifecycle.Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&lc.WindowDecisions, 48)
	def(&lc.CheckEvery, 8)
	deff(&lc.DriftCooldown, 120)
	def(&lc.RetrainMinSamples, 30)
	def(&lc.RetrainMinVariation, 2)
	deff(&lc.RetrainCooldown, 300)
	def(&lc.ShadowMinLabeled, 16)
	def(&lc.ShadowMaxLabeled, 96)
	deff(&lc.CanaryFraction, 1.0)
	def(&lc.CanaryMinActed, 10)
	def(&lc.RollbackMinActed, 6)
	return lc
}

// DriftRow is one scenario's lifecycle-enabled RUSH trials.
type DriftRow struct {
	Scenario DriftScenario
	Trials   []*Trial
}

// RunDriftExperiment runs spec under every drift scenario with the model
// lifecycle enabled, RUSH-only (the baseline has no model to drift),
// with paired seeds baseSeed+i per trial. Scenario×trial tasks execute
// concurrently under cfg.Workers and rows come back in scenario order,
// byte-identical at any worker count.
func RunDriftExperiment(spec workload.Spec, pred *core.Predictor, scenarios []DriftScenario, trials int, baseSeed int64, cfg Config) ([]DriftRow, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: %s drift experiment: trials must be positive, got %d", spec.Name, trials)
	}
	if len(scenarios) == 0 {
		scenarios = DefaultDriftScenarios()
	}
	cfg.Lifecycle.Enabled = true
	cfg.Lifecycle = trialScale(cfg.Lifecycle)
	rows := make([]DriftRow, len(scenarios))
	for s := range rows {
		rows[s] = DriftRow{Scenario: scenarios[s], Trials: make([]*Trial, trials)}
	}
	err := parallel.Run(cfg.Workers, len(scenarios)*trials, func(k int) error {
		s, i := k/trials, k%trials
		sc := scenarios[s]
		scCfg := cfg
		scCfg.Faults = sc.Faults
		seed := baseSeed + int64(i)
		jobs, err := workload.Generate(spec, seed)
		if err != nil {
			return fmt.Errorf("experiments: drift scenario %q trial %d: %w", sc.Name, i, err)
		}
		if sc.AppSeverity > 0 {
			for _, sj := range jobs {
				if sj.SubmitAt >= sc.AppStart {
					sj.Job.App = apps.Drifted(sj.Job.App, sc.AppSeverity)
				}
			}
		}
		tr, err := RunTrialJobs(spec.Name, jobs, RUSH, pred, seed, scCfg)
		if err != nil {
			return fmt.Errorf("experiments: drift scenario %q trial %d: %w", sc.Name, i, err)
		}
		rows[s].Trials[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
