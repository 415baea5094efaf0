package cluster

import "testing"

// TestParseTopology pins the -topo flag grammar: the two named
// reference shapes, the synthetic "N,podsize" form, and loud rejection
// of everything else.
func TestParseTopology(t *testing.T) {
	cases := []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"pod512", Pod512(), true},
		{"quartz", Quartz(), true},
		{"4096,512", Synthetic(4096, 512), true},
		{"2988,192", Synthetic(2988, 192), true},
		{"", Topology{}, false},
		{"quartz2", Topology{}, false},
		{"4096", Topology{}, false},
		{"4096,", Topology{}, false},
		{"4096,512x", Topology{}, false},
		{"0,512", Topology{}, false},    // Validate: non-positive nodes
		{"512,4096", Topology{}, false}, // Validate: pod exceeds machine
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestTopologyStringRoundTrips pins that String renders what Parse
// accepts, naming the reference configurations.
func TestTopologyStringRoundTrips(t *testing.T) {
	for _, topo := range []Topology{Pod512(), Quartz(), Synthetic(4096, 512)} {
		back, err := Parse(topo.String())
		if err != nil || back != topo {
			t.Errorf("round trip %+v -> %q -> %+v (err %v)", topo, topo.String(), back, err)
		}
	}
	if Pod512().String() != "pod512" || Quartz().String() != "quartz" {
		t.Errorf("reference names: %q, %q", Pod512().String(), Quartz().String())
	}
}

// TestSyntheticPods pins partial-last-pod handling at the synthetic
// scale shapes the engine benchmarks use.
func TestSyntheticPods(t *testing.T) {
	if got := Synthetic(4096, 512).Pods(); got != 8 {
		t.Errorf("4096/512 pods = %d, want 8", got)
	}
	if got := Quartz().Pods(); got != 16 {
		t.Errorf("quartz pods = %d, want 16 (last partial)", got)
	}
}

// FuzzTopoParse feeds arbitrary -topo values to Parse. Each must end in
// an error or in a topology Validate accepts, within maxNodes, whose
// String parses back to the same topology.
func FuzzTopoParse(f *testing.F) {
	for _, seed := range []string{"pod512", "quartz", "4096,512", "+1,1", "100,0", "9223372036854775807,1", "3000000000,512"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		topo, err := Parse(in)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %+v, which Validate rejects: %v", in, topo, err)
		}
		if topo.Nodes > maxNodes {
			t.Fatalf("Parse(%q) = %d nodes, past the limit of %d", in, topo.Nodes, maxNodes)
		}
		back, err := Parse(topo.String())
		if err != nil || back != topo {
			t.Fatalf("Parse(%q) = %+v renders as %q, which parses to %+v (err %v)", in, topo, topo.String(), back, err)
		}
	})
}
