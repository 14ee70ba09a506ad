package main

import (
	"testing"

	"hsfsim/internal/cut"
	"hsfsim/internal/qaoa"
)

// A workload seed must change the circuits but not the work: every instance
// keeps its seed-0 edge count and joint-cut path count.
func TestSeedsKeepWorkSize(t *testing.T) {
	specs := tableSpecs()
	hot, cold := serveSpecs()
	specs = append(append(specs, hot...), cold...)
	for _, spec := range specs {
		base, err := generate(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := paths(t, base)
		for seed := int64(1); seed <= 3; seed++ {
			inst, err := generate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			if inst.Circuit.NumQubits != base.Circuit.NumQubits || len(inst.Graph.Edges) != len(base.Graph.Edges) {
				t.Fatalf("%s seed %d: %d qubits, %d edges; seed 0 has %d, %d", spec.Name, seed,
					inst.Circuit.NumQubits, len(inst.Graph.Edges), base.Circuit.NumQubits, len(base.Graph.Edges))
			}
			if got := paths(t, inst); got != want {
				t.Errorf("%s seed %d: log2 paths %v, seed 0 has %v", spec.Name, seed, got, want)
			}
			same := true
			for i, e := range inst.Graph.Edges {
				same = same && e == base.Graph.Edges[i]
			}
			if same {
				t.Errorf("%s seed %d: graph identical to seed 0", spec.Name, seed)
			}
		}
	}
}

func paths(t *testing.T, inst *qaoa.Instance) float64 {
	t.Helper()
	plan, err := cut.BuildPlan(inst.Circuit, cut.Options{
		Partition: cut.Partition{CutPos: inst.Spec.CutPos()},
		Strategy:  cut.StrategyCascade,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Log2Paths()
}
