package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metric names and units the program reports must be the ones
// BENCHMARK.json declares, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	e2e := endToEnd(&outcome{setup: []float64{1}, run: phase{attempted: 1, lat: []float64{1}, wall: 1}}, summarize([]float64{1}))
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("program reports %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program reports %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}

	var declared, reported []string
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, m := range layerMetricNames {
		reported = append(reported, m.name+" "+m.unit)
	}
	sort.Strings(declared)
	sort.Strings(reported)
	if len(declared) != len(reported) {
		t.Fatalf("per-layer: declared %v, reported %v", declared, reported)
	}
	for i := range declared {
		if declared[i] != reported[i] {
			t.Errorf("per-layer: declared %q, reported %q", declared[i], reported[i])
		}
	}
}
