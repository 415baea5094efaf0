//go:build race

package telemetry

// raceBuild is true in -race builds, whose heap MemStats allocation
// counts include the runtime's own bookkeeping (see
// TestBlockIsWidthSized).
const raceBuild = true
