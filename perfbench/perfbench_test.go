package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// The tests run every workload at a reduced size. They share the
// package's input caches, so they must not run in parallel.

func withScale(t *testing.T, s int) {
	t.Helper()
	old, oldDir := scale, workDir
	scale, workDir = s, t.TempDir()
	t.Cleanup(func() { scale, workDir = old, oldDir })
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestLedgerConsistency runs each workload's traced mode at tiny size:
// every per-layer metric is present with its unit, the layers' self
// fractions never sum past the ops' time, and the obs, sched and named
// layers read zero where no hook chain or scheduler is attached.
func TestLedgerConsistency(t *testing.T) {
	withScale(t, 64)
	selfFracs := []string{"pdm.self_frac", "bucket.self_frac", "expander.self_frac", "core.self_frac", "obs.self_frac", "sched.self_frac"}
	zeroWithoutStack := []string{
		"named.self_ns_per_op", "named.inner_ops_per_op",
		"obs.events_per_op", "obs.hook_ns_per_event", "obs.monitor_ns_per_event",
		"obs.accountant_ns_per_event", "obs.collector_ns_per_event", "obs.self_frac",
		"sched.coalesce_factor", "sched.rounds_saved_frac", "sched.wait_ns", "sched.backend_ns_per_round",
		"sched.group_commit_size", "sched.log_bytes_per_write", "sched.overloads", "sched.self_frac",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := runTraced(w, 3, 200*time.Millisecond, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(out.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit == "" || m.Unit != d.unit {
					t.Errorf("%s: present %v, unit %q, want %q", d.name, ok, m.Unit, d.unit)
				}
			}
			sum := 0.0
			for _, name := range selfFracs {
				v := out.Metrics[name].Value
				if v < 0 {
					t.Errorf("%s = %v, negative", name, v)
				}
				sum += v
			}
			if sum > 1+1e-9 {
				t.Errorf("self fractions sum to %v, above 1", sum)
			}
			if w.name != "served-zipf" {
				for _, name := range zeroWithoutStack {
					if v := out.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v without a hook chain or scheduler, want 0", name, v)
					}
				}
			} else if out.Metrics["sched.coalesce_factor"].Value < 1 || out.Metrics["obs.events_per_op"].Value == 0 {
				t.Errorf("served-zipf ledger misses its scheduler or hook chain: %+v", out.Metrics)
			}
		})
	}
}

// TestRepeatableCounts: on the single-client workloads the modeled
// counts are a function of the seed alone, so two runs agree exactly.
func TestRepeatableCounts(t *testing.T) {
	withScale(t, 8)
	for _, name := range []string{"grow-churn", "degraded-read"} {
		t.Run(name, func(t *testing.T) {
			w := mustWorkload(t, name)
			var e2e [2]output
			var traced [2]output
			for i := range e2e {
				var err error
				if e2e[i], err = runEndToEnd(w, 5, 100*time.Millisecond, io.Discard); err != nil {
					t.Fatal(err)
				}
				if traced[i], err = runTraced(w, 5, 100*time.Millisecond, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range []string{"steps_per_op", "max_op_steps", "stored_bytes_per_user_byte"} {
				if a, b := e2e[0].Metrics[m].Value, e2e[1].Metrics[m].Value; a != b {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
			if a, b := traced[0].Metrics["core.rebuilds"].Value, traced[1].Metrics["core.rebuilds"].Value; a != b {
				t.Errorf("core.rebuilds: %v then %v", a, b)
			}
			if name == "grow-churn" && traced[0].Metrics["core.rebuilds"].Value == 0 {
				t.Errorf("grow-churn at this size should rebuild at least once")
			}
		})
	}
}

// TestEndToEndMetrics: every declared metric is reported, nonzero, on
// every workload BENCHMARK.json lists, and no answer is wrong there.
func TestEndToEndMetrics(t *testing.T) {
	withScale(t, 64)
	for _, w := range declaredWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			out, err := runEndToEnd(w, 7, 200*time.Millisecond, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("correct %v, %d of %d failed", out.Correct, out.Failed, out.Attempted)
			}
			for _, d := range endToEnd {
				if m := out.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %v %q, want a positive value in %q", d.name, m.Value, m.Unit, d.unit)
				}
			}
		})
	}
}

// TestDegradedReadCountsFailures: wrong answers are counted, not fatal.
// degraded-read surfaces a known defect — Basic.BulkLoad with Replicas ≥
// 2 writes records that read back present with zeroed satellites — so
// its runs report failures until BulkLoad is fixed; then this test must
// be turned around to expect none.
func TestDegradedReadCountsFailures(t *testing.T) {
	withScale(t, 8)
	out, err := runEndToEnd(mustWorkload(t, "degraded-read"), 4, 100*time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed == 0 || out.Failed >= out.Attempted {
		t.Errorf("correct %v, %d of %d failed; want the BulkLoad defect counted", out.Correct, out.Failed, out.Attempted)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func declaredWorkloads(t *testing.T) []workload {
	var out []workload
	for _, w := range readBenchmarkFile(t).Workloads {
		out = append(out, mustWorkload(t, w.Name))
	}
	return out
}

// TestBenchmarkFileMatchesLedger keeps BENCHMARK.json and the metric
// tables in this package naming the same metrics with the same units.
func TestBenchmarkFileMatchesLedger(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the tables %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, table says %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, table says %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
