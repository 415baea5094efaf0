// Package telemetry reproduces the monitoring substrate the paper builds
// on: LDMS samplers writing per-node counters from three tables —
// sysclassib (InfiniBand endpoint counters), opa_info (Omni-Path switch
// counters), and lustre_client (Lustre client metrics) — plus the
// min/max/mean aggregation over the five minutes before each job that
// turns raw samples into model features.
//
// Counter values are synthesized from the simulator's load history: each
// counter is an affine function of a latent signal (pod network load or
// overload, filesystem load or overload) with per-sample multiplicative
// noise; error counters carry no signal at all, giving feature selection
// something real to eliminate.
package telemetry

import (
	"fmt"
	"slices"
)

// Src identifies which latent simulator signal drives a counter.
type Src int

const (
	// SrcNet counters scale with raw pod network load (traffic volume).
	SrcNet Src = iota
	// SrcNetOverload counters scale with pod network contention (queue
	// waits, congestion notifications) — nonlinear in load.
	SrcNetOverload
	// SrcFS counters scale with raw filesystem load (bytes, op counts).
	SrcFS
	// SrcFSOverload counters scale with filesystem contention.
	SrcFSOverload
	// SrcNoise counters are pure measurement noise (error counters that
	// stay near zero on a healthy machine).
	SrcNoise
)

// Counter describes one monitored quantity.
type Counter struct {
	// Table is the LDMS table the counter belongs to: "sysclassib",
	// "opa_info", or "lustre_client".
	Table string
	// Name is the counter name within its table.
	Name string
	// Src is the latent signal that drives the counter.
	Src Src
	// Base is the counter's idle-machine level.
	Base float64
	// Gain scales the latent signal into counter units.
	Gain float64
	// Noise is the relative (multiplicative) noise sigma per sample.
	Noise float64
}

// Table sizes from Table I of the paper.
const (
	NumSysclassib   = 22
	NumOpaInfo      = 34
	NumLustreClient = 34
	// NumCounters is the total number of per-node counters.
	NumCounters = NumSysclassib + NumOpaInfo + NumLustreClient
)

// schema is the counter table, built once; samplers read it and Schema
// hands out copies of it. tables lists its LDMS tables in schema order.
var (
	schema = buildSchema()
	tables = []string{"sysclassib", "opa_info", "lustre_client"}
)

// Schema returns the full counter schema: 22 sysclassib + 34 opa_info +
// 34 lustre_client counters, in a fixed order that defines the dataset's
// column layout. The slice is the caller's own.
func Schema() []Counter { return slices.Clone(schema) }

func buildSchema() []Counter {
	var cs []Counter
	add := func(table, name string, src Src, base, gain, noise float64) {
		cs = append(cs, Counter{Table: table, Name: name, Src: src, Base: base, Gain: gain, Noise: noise})
	}

	// sysclassib: InfiniBand endpoint counters (rates per sample period).
	ib := func(name string, src Src, base, gain, noise float64) {
		add("sysclassib", name, src, base, gain, noise)
	}
	ib("port_xmit_data", SrcNet, 120, 900, 0.05)
	ib("port_rcv_data", SrcNet, 118, 880, 0.05)
	ib("port_xmit_pkts", SrcNet, 300, 2100, 0.06)
	ib("port_rcv_pkts", SrcNet, 295, 2050, 0.06)
	ib("port_xmit_wait", SrcNetOverload, 2, 4500, 0.10)
	ib("unicast_xmit_pkts", SrcNet, 260, 1900, 0.06)
	ib("unicast_rcv_pkts", SrcNet, 255, 1850, 0.06)
	ib("multicast_xmit_pkts", SrcNet, 12, 90, 0.15)
	ib("multicast_rcv_pkts", SrcNet, 12, 85, 0.15)
	ib("port_xmit_discards", SrcNetOverload, 0.1, 45, 0.30)
	ib("port_rcv_errors", SrcNoise, 0.05, 0, 0.50)
	ib("symbol_error", SrcNoise, 0.02, 0, 0.60)
	ib("link_downed", SrcNoise, 0.001, 0, 0.80)
	ib("link_error_recovery", SrcNoise, 0.002, 0, 0.80)
	ib("port_rcv_remote_physical_errors", SrcNoise, 0.01, 0, 0.70)
	ib("port_rcv_switch_relay_errors", SrcNoise, 0.01, 0, 0.70)
	ib("port_xmit_constraint_errors", SrcNoise, 0.005, 0, 0.70)
	ib("port_rcv_constraint_errors", SrcNoise, 0.005, 0, 0.70)
	ib("local_link_integrity_errors", SrcNoise, 0.002, 0, 0.80)
	ib("excessive_buffer_overrun_errors", SrcNetOverload, 0.05, 25, 0.35)
	ib("VL15_dropped", SrcNetOverload, 0.02, 12, 0.40)
	ib("port_rcv_packets_err", SrcNoise, 0.03, 0, 0.60)

	// opa_info: Omni-Path switch counters.
	opa := func(name string, src Src, base, gain, noise float64) {
		add("opa_info", name, src, base, gain, noise)
	}
	opa("tx_words", SrcNet, 140, 1000, 0.05)
	opa("rx_words", SrcNet, 138, 990, 0.05)
	opa("tx_pkts", SrcNet, 310, 2200, 0.06)
	opa("rx_pkts", SrcNet, 305, 2150, 0.06)
	opa("mcast_tx_pkts", SrcNet, 10, 70, 0.15)
	opa("mcast_rx_pkts", SrcNet, 10, 68, 0.15)
	opa("xmit_wait", SrcNetOverload, 3, 5200, 0.10)
	opa("congestion_discards", SrcNetOverload, 0.1, 60, 0.30)
	opa("rcv_fecn", SrcNetOverload, 0.5, 800, 0.15)
	opa("rcv_becn", SrcNetOverload, 0.4, 750, 0.15)
	opa("mark_fecn", SrcNetOverload, 0.3, 700, 0.15)
	opa("link_quality_indicator", SrcNoise, 5, 0, 0.02)
	opa("bubble_errors", SrcNoise, 0.02, 0, 0.60)
	opa("rcv_errors", SrcNoise, 0.03, 0, 0.60)
	opa("xmit_discards", SrcNetOverload, 0.1, 40, 0.30)
	opa("link_downed", SrcNoise, 0.001, 0, 0.80)
	opa("uncorrectable_errors", SrcNoise, 0.001, 0, 0.80)
	opa("fm_config_errors", SrcNoise, 0.001, 0, 0.80)
	for vl := 0; vl < 8; vl++ {
		// Per-virtual-lane traffic: VL0 carries the bulk, higher lanes
		// progressively less.
		share := 1.0 / float64(1+vl*2)
		opa(vlName("tx_vl", vl), SrcNet, 40*share, 600*share, 0.08)
	}
	for vl := 0; vl < 8; vl++ {
		share := 1.0 / float64(1+vl*2)
		opa(vlName("rx_vl", vl), SrcNet, 39*share, 590*share, 0.08)
	}

	// lustre_client: Lustre client metrics.
	lc := func(name string, src Src, base, gain, noise float64) {
		add("lustre_client", name, src, base, gain, noise)
	}
	lc("read_bytes", SrcFS, 50, 1500, 0.08)
	lc("write_bytes", SrcFS, 60, 1800, 0.08)
	lc("read_calls", SrcFS, 20, 500, 0.08)
	lc("write_calls", SrcFS, 25, 550, 0.08)
	lc("brw_read", SrcFS, 15, 420, 0.10)
	lc("brw_write", SrcFS, 18, 460, 0.10)
	lc("page_read", SrcFS, 200, 3800, 0.08)
	lc("page_write", SrcFS, 220, 4100, 0.08)
	lc("dirty_pages_hits", SrcFS, 90, 1100, 0.12)
	lc("dirty_pages_misses", SrcFSOverload, 4, 900, 0.15)
	lc("open", SrcFS, 8, 120, 0.12)
	lc("close", SrcFS, 8, 118, 0.12)
	lc("seek", SrcFS, 6, 80, 0.15)
	lc("fsync", SrcFSOverload, 0.5, 140, 0.20)
	lc("setattr", SrcFS, 1.5, 25, 0.20)
	lc("getattr", SrcFS, 12, 160, 0.12)
	lc("statfs", SrcNoise, 0.8, 0, 0.30)
	lc("ioctl", SrcNoise, 0.5, 0, 0.30)
	lc("mmap", SrcFS, 1.2, 20, 0.25)
	lc("inode_permission", SrcFS, 30, 300, 0.12)
	lc("truncate", SrcFS, 0.6, 12, 0.30)
	lc("flock", SrcNoise, 0.2, 0, 0.40)
	lc("getxattr", SrcFS, 2.5, 30, 0.20)
	lc("setxattr", SrcNoise, 0.1, 0, 0.40)
	lc("listxattr", SrcNoise, 0.1, 0, 0.40)
	lc("removexattr", SrcNoise, 0.05, 0, 0.50)
	lc("unlink", SrcFS, 0.7, 14, 0.30)
	lc("mkdir", SrcNoise, 0.3, 0, 0.40)
	lc("rmdir", SrcNoise, 0.2, 0, 0.40)
	lc("rename", SrcFS, 0.4, 10, 0.30)
	lc("create", SrcFS, 1.0, 22, 0.25)
	lc("lookup", SrcFS, 18, 210, 0.12)
	lc("link", SrcNoise, 0.1, 0, 0.50)
	lc("readdir", SrcFS, 3.0, 45, 0.20)

	if len(cs) != NumCounters {
		panic("telemetry: schema size drifted from Table I")
	}
	for _, c := range cs {
		if c.Src < SrcNet || c.Src > SrcNoise {
			panic(fmt.Sprintf("telemetry: unknown source %d", c.Src))
		}
	}
	return cs
}

func vlName(prefix string, vl int) string {
	return prefix + string(rune('0'+vl))
}
