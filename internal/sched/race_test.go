//go:build race

package sched

// raceBuild is true in -race builds, whose heap MemStats allocation
// counts include the runtime's own bookkeeping (see
// TestGateDecisionZeroAllocs).
const raceBuild = true
