package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return b
}

// TestMetricListsMatchBenchmarkFile checks that the metrics the benchmark
// reports are exactly the ones BENCHMARK.json declares, with the same units,
// and that its workloads are the declared ones.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
		}
	}
	check := func(kind string, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark reports %d", kind, len(declared), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] declared, benchmark has unit %q", kind, d.Name, d.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestShortRunsReportEveryMetric runs every workload briefly, untraced and
// traced, and checks that the outputs verified and that every metric
// BENCHMARK.json names is printed with its unit.
func TestShortRunsReportEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	budget := 2 * time.Second
	if testing.Short() {
		budget = 300 * time.Millisecond
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 3, budget: budget, trace: traced, setupMin: 1}
			res, err := run(w.Name, o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
