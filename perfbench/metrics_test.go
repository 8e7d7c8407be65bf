package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nemitted:\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\nemitted:\n%+v", f.PerLayer, perLayer)
	}
	// Every declared workload runs; fleet runs too but is left out of
	// BENCHMARK.json (see README.md).
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	names = append(names, "fleet")
	sort.Strings(names)
	if got := sortedKeys(workloads); !reflect.DeepEqual(got, names) {
		t.Errorf("workloads in BENCHMARK.json plus fleet %v, runnable %v", names, got)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, name := range selfMetrics {
		if !seen[name] {
			t.Errorf("self-time metric %s is not declared", name)
		}
	}
}

// TestPlanEmitsDeclaredMetrics runs the plan loop on two tiny instances,
// then the layer probes, and checks that together they measure every
// declared metric and nothing undeclared.
func TestPlanEmitsDeclaredMetrics(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: 1, work: t.TempDir()}
	tr := newTracer()
	out, err := runPlan(context.Background(), cfg, tr, []string{"1T-1", "1T-5"})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("plan checks failed: %v", out.problems)
	}
	for _, d := range endToEnd {
		if v, ok := out.metrics[d.Name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v (present %v), want a positive value", d.Name, v, ok)
		}
	}
	if testing.Short() {
		return
	}
	if err := runProbes(context.Background(), cfg, tr, out); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		declared[d.Name] = true
	}
	for name := range out.metrics {
		if !declared[name] {
			t.Errorf("undeclared metric %s emitted", name)
		}
	}
	for _, d := range perLayer {
		if _, ok := out.metrics[d.Name]; !ok && !strings.HasPrefix(d.Name, "self.") && !strings.HasPrefix(d.Name, "trace.") {
			t.Errorf("per-layer metric %s not measured", d.Name)
		}
	}
}
