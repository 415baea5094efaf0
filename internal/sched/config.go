package sched

import (
	"fmt"

	"rush/internal/faults"
	"rush/internal/machine"
	"rush/internal/obs"
)

// Config assembles a Scheduler. Only Machine is required; every other
// field has a baseline default, so the zero-value-plus-machine config is
// a plain FCFS+EASY scheduler.
type Config struct {
	// Machine is the simulated machine to schedule onto (required).
	Machine *machine.Machine
	// Primary orders the main queue (the paper's R1). Default FCFS.
	Primary Policy
	// Backfill orders backfill candidates (the paper's R2). Default:
	// same as Primary.
	Backfill Policy
	// Gate makes the Algorithm 2 start decision. Default AlwaysStart
	// (the unconditional baseline).
	Gate Gate
	// Mode selects the backfilling discipline. Default EASYBackfill.
	Mode BackfillMode
	// Observer, when non-nil, receives structured trace events and
	// metrics from the scheduler; it is also wired into the gate (if the
	// gate implements ObservableGate) and into Faults. Nil disables all
	// observation at zero cost.
	Observer *obs.Observer
	// Faults is an optional fault injector already attached to Machine;
	// providing it here lets the scheduler wire the Observer into it.
	// The scheduler takes no other interest in the injector.
	Faults *faults.Injector
}

// NewScheduler builds a scheduler from cfg, applying defaults for every
// omitted field and wiring the observer through all observable
// components. It is the only constructor.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sched: Config.Machine is required")
	}
	if cfg.Primary == nil {
		cfg.Primary = FCFS{}
	}
	if cfg.Backfill == nil {
		cfg.Backfill = cfg.Primary
	}
	if cfg.Gate == nil {
		cfg.Gate = AlwaysStart{}
	}
	s := &Scheduler{
		m: cfg.Machine, r1: cfg.Primary, r2: cfg.Backfill, gt: cfg.Gate,
		Backfill:          cfg.Mode,
		RetryInterval:     30,
		VetoCooldown:      30,
		RequeueBackoff:    60,
		MaxRequeueBackoff: 15 * 60,
	}
	s.onDone = s.jobDone
	if cfg.Observer != nil {
		s.obs = cfg.Observer
		reg := cfg.Observer.Metrics()
		s.met = schedMetrics{
			submitted:  reg.Counter("sched_jobs_submitted_total"),
			started:    reg.Counter("sched_jobs_started_total"),
			backfilled: reg.Counter("sched_jobs_backfilled_total"),
			finished:   reg.Counter("sched_jobs_finished_total"),
			requeued:   reg.Counter("sched_jobs_requeued_total"),
			failed:     reg.Counter("sched_jobs_failed_total"),
			vetoes:     reg.Counter("sched_gate_vetoes_total"),
			passes:     reg.Counter("sched_passes_total"),
			passWall:   reg.Counter("sched_pass_wall_us"),
			queuePeak:  reg.Gauge("sched_queue_len_peak"),
			breakpts:   reg.Gauge("timeline_breakpoints"),
			waitHist:   reg.Histogram("sched_wait_seconds", waitBuckets),
			runHist:    reg.Histogram("sched_run_seconds", runBuckets),
		}
		if og, ok := cfg.Gate.(ObservableGate); ok {
			og.Observe(cfg.Observer)
		}
		if cfg.Faults != nil {
			cfg.Faults.Observe(cfg.Observer)
		}
	}
	return s, nil
}
