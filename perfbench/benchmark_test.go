package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics and workloads this
// program reports.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program reports %s [%s]",
					kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
