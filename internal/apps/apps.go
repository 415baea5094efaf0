// Package apps models the seven MPI proxy applications the paper uses as
// control jobs — Kripke, AMG, Laghos, SWFFT, PENNANT, sw4lite, and LBANN —
// plus the synthetic all-to-all noise job used in the scheduling
// experiments.
//
// Each application is reduced to the profile the simulator needs: a base
// run time at the reference 16-node scale, scaling exponents for the weak-
// and strong-scaling experiments, how much load the app injects into the
// pod network and the global filesystem, and how sensitive its run time is
// to contention on each resource. Sensitivities are what give each app its
// distinct variability signature (Laghos, LBANN, and sw4lite are the
// variation-prone ones in the paper; PENNANT and Kripke are comparatively
// steady).
package apps

import (
	"fmt"
	"math"
	"slices"

	"rush/internal/cluster"
)

// Class is the paper's one-hot workload-type label: compute, network, or
// I/O intensive. In production this label comes from the user, empirical
// methods, or binary analysis; for the proxy apps it is fixed.
type Class int

const (
	// ComputeIntensive marks apps dominated by on-node work.
	ComputeIntensive Class = iota
	// NetworkIntensive marks apps dominated by communication.
	NetworkIntensive
	// IOIntensive marks apps dominated by filesystem traffic.
	IOIntensive
)

// String returns the class label used in dataset columns.
func (c Class) String() string {
	switch c {
	case ComputeIntensive:
		return "compute"
	case NetworkIntensive:
		return "network"
	case IOIntensive:
		return "io"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// OneHot returns the three-element one-hot encoding of the class, ordered
// compute, network, io as in Table I of the paper.
func (c Class) OneHot() [3]float64 {
	var v [3]float64
	if c >= 0 && int(c) < len(v) {
		v[c] = 1
	}
	return v
}

// ScalingMode selects how an app's problem changes with node count in the
// WS and SS experiments.
type ScalingMode int

const (
	// ReferenceScale runs the app at its profiled 16-node configuration
	// regardless of node count adjustments (used by ADAA/ADPA/PDPA).
	ReferenceScale ScalingMode = iota
	// WeakScaling keeps per-node work fixed: run time grows mildly with
	// node count through added communication.
	WeakScaling
	// StrongScaling keeps total work fixed: run time shrinks with node
	// count, less than ideally.
	StrongScaling
)

// RefNodes is the reference node count all base times are profiled at.
const RefNodes = 16

// Profile captures everything the simulator needs to know about one
// application.
type Profile struct {
	// Name is the proxy app name as used in the paper's figures.
	Name string
	// Class is the one-hot workload label included in the dataset.
	Class Class
	// Base16 is the contention-free run time in seconds on 16 nodes.
	Base16 float64
	// StrongExp is the strong-scaling efficiency exponent: run time is
	// Base16 * (16/n)^StrongExp. 1.0 would be ideal speedup.
	StrongExp float64
	// WeakExp is the weak-scaling growth exponent: run time is
	// Base16 * (n/16)^WeakExp. 0 would be ideal weak scaling.
	WeakExp float64
	// NetPerNode is the network load each node injects into its pod, in
	// units where a full 512-node pod's capacity is PodUnit * 512.
	NetPerNode float64
	// FSPerNode is the filesystem load each node injects, in absolute
	// normalized units (global filesystem capacity is 1.0).
	FSPerNode float64
	// NetSens scales how much pod network overload inflates run time.
	NetSens float64
	// FSSens scales how much filesystem overload inflates run time.
	FSSens float64
	// Jitter is the sigma of the per-run lognormal noise floor (OS noise,
	// placement luck) that exists even on an idle machine.
	Jitter float64
}

// BaseTime returns the contention-free run time on n nodes under the
// given scaling mode. It panics on a non-positive node count.
func (p Profile) BaseTime(n int, mode ScalingMode) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("apps: non-positive node count %d", n))
	}
	ratio := float64(n) / float64(RefNodes)
	switch mode {
	case WeakScaling:
		return p.Base16 * math.Pow(ratio, p.WeakExp)
	case StrongScaling:
		return p.Base16 * math.Pow(1/ratio, p.StrongExp)
	default:
		return p.Base16
	}
}

// CountPods appends alloc's pods, ascending, to the empty pods and the
// nodes in each to the empty counts. tally is topo.Pods() zeros of
// scratch, reset through the pods touched, so a census is O(alloc).
func CountPods(topo cluster.Topology, alloc cluster.Allocation, tally, pods, counts []int) ([]int, []int) {
	for _, n := range alloc.Nodes {
		pod := topo.PodOf(n)
		if tally[pod] == 0 {
			pods = append(pods, pod)
		}
		tally[pod]++
	}
	slices.Sort(pods)
	for _, pod := range pods {
		counts = append(counts, tally[pod])
		tally[pod] = 0
	}
	return pods, counts
}

// LoadsInto writes into loads[i] this app's network load on pods[i] of an
// allocation whose census (CountPods) is pods and counts, and returns its
// core-link and filesystem loads. A pod's load is its count's additions of
// one node's share from zero, as a per-node walk adds them, so the same
// float. Traffic between pods also loads the core links: under uniform
// communication a share 1 - sum((nodes_in_pod/n)^2) of it, summed in
// ascending pod order.
func (p Profile) LoadsInto(topo cluster.Topology, pods, counts []int, loads []float64) (core, fs float64) {
	// Pod capacity is normalized to 1.0 regardless of pod size, so a
	// node's share of its pod's fabric is 1/PodSize.
	share := p.NetPerNode / float64(topo.PodSize)
	nodes := 0
	for i := range pods {
		var load float64
		for k := 0; k < counts[i]; k++ {
			load += share
		}
		loads[i] = load
		nodes += counts[i]
	}
	total := float64(nodes)
	// crossFrac is 1 - sum of squared per-pod node fractions: the
	// probability two random job ranks sit in different pods, i.e. the
	// share of the job's traffic that crosses the core links.
	crossFrac := 1.0
	for _, n := range counts {
		f := float64(n) / total
		crossFrac -= f * f
	}
	return p.NetPerNode * total * crossFrac / float64(topo.Nodes), p.FSPerNode * total
}

// Slowdown returns the multiplicative run-time inflation for the given
// pod-network and filesystem contention factors (see simnet.Overload).
// It is always >= 1.
func (p Profile) Slowdown(netOverload, fsOverload float64) float64 {
	return p.SlowdownCore(netOverload, 0, fsOverload)
}

// SlowdownCore additionally accounts for inter-pod core-link contention,
// which hits a job's communication exactly like leaf contention does but
// only applies to allocations spanning several pods.
func (p Profile) SlowdownCore(netOverload, coreOverload, fsOverload float64) float64 {
	return 1 + p.NetSens*(netOverload+coreOverload) + p.FSSens*fsOverload
}

// Defaults returns the seven proxy application profiles. The relative
// sensitivities follow the paper's observations: Laghos, LBANN, and
// sw4lite are the most variation-prone; Kripke, AMG, and PENNANT the
// steadiest; SWFFT sits in between.
func Defaults() []Profile {
	return []Profile{
		{
			Name: "Kripke", Class: ComputeIntensive,
			Base16: 185, StrongExp: 0.88, WeakExp: 0.08,
			NetPerNode: 0.28, FSPerNode: 0.00030,
			NetSens: 0.16, FSSens: 0.06, Jitter: 0.012,
		},
		{
			Name: "AMG", Class: ComputeIntensive,
			Base16: 150, StrongExp: 0.82, WeakExp: 0.10,
			NetPerNode: 0.34, FSPerNode: 0.00030,
			NetSens: 0.22, FSSens: 0.06, Jitter: 0.013,
		},
		{
			Name: "Laghos", Class: NetworkIntensive,
			Base16: 240, StrongExp: 0.78, WeakExp: 0.14,
			NetPerNode: 0.59, FSPerNode: 0.00040,
			NetSens: 0.62, FSSens: 0.08, Jitter: 0.018,
		},
		{
			Name: "SWFFT", Class: NetworkIntensive,
			Base16: 130, StrongExp: 0.75, WeakExp: 0.16,
			NetPerNode: 0.53, FSPerNode: 0.00030,
			NetSens: 0.36, FSSens: 0.06, Jitter: 0.016,
		},
		{
			Name: "PENNANT", Class: ComputeIntensive,
			Base16: 200, StrongExp: 0.86, WeakExp: 0.09,
			NetPerNode: 0.31, FSPerNode: 0.00030,
			NetSens: 0.18, FSSens: 0.06, Jitter: 0.012,
		},
		{
			Name: "sw4lite", Class: NetworkIntensive,
			Base16: 260, StrongExp: 0.80, WeakExp: 0.12,
			NetPerNode: 0.50, FSPerNode: 0.00060,
			NetSens: 0.52, FSSens: 0.12, Jitter: 0.016,
		},
		{
			Name: "LBANN", Class: IOIntensive,
			Base16: 300, StrongExp: 0.72, WeakExp: 0.18,
			NetPerNode: 0.44, FSPerNode: 0.00280,
			NetSens: 0.38, FSSens: 0.55, Jitter: 0.020,
		},
	}
}

// defaults is built once for ByName and Names; callers get copies.
var defaults = Defaults()

// ByName returns the default profile with the given name.
func ByName(name string) (Profile, error) {
	for i := range defaults {
		if defaults[i].Name == name {
			return defaults[i], nil
		}
	}
	return Profile{}, fmt.Errorf("apps: unknown application %q", name)
}

// Names returns the default application names in their canonical order.
func Names() []string {
	names := make([]string, len(defaults))
	for i, p := range defaults {
		names[i] = p.Name
	}
	return names
}

// Noise describes the synthetic all-to-all noise job the paper runs on
// 1/16th of the experiment nodes to provoke variation. The job cycles
// through random phases; in each phase it injects a uniformly drawn load
// level for a uniformly drawn duration.
type Noise struct {
	// NodeFraction is the fraction of the experiment's nodes the noise
	// job occupies (the paper uses 1/16).
	NodeFraction float64
	// MinPhase and MaxPhase bound the duration of one phase in seconds.
	MinPhase, MaxPhase float64
	// MaxLoad is the pod network load injected at full blast; each
	// phase's level is drawn uniformly from [0, MaxLoad].
	MaxLoad float64
	// FSFraction is the fraction of the phase's network load mirrored
	// onto the filesystem (all-to-all checkpoints touch Lustre a little).
	FSFraction float64
}

// DefaultNoise returns the noise configuration used by the scheduling
// experiments.
func DefaultNoise() Noise {
	return Noise{
		NodeFraction: 1.0 / 16.0,
		MinPhase:     45,
		MaxPhase:     180,
		MaxLoad:      0.65,
		FSFraction:   0.25,
	}
}
