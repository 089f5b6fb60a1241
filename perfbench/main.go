// Command perfbench is the repository's benchmark: it drives seeded
// workloads through the public entry points of each layer, checks every
// answer against a model kept on the benchmark side, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ledger) by name
// with their units. The last line of standard output is one JSON object.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload read-uniform --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workDir holds the run's scratch files (intent logs, span dumps).
var workDir = ".bench_build/run"

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: equal seeds give equal inputs")
	secs := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&workDir, "workdir", workDir, "directory for scratch files")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dur := time.Duration(*secs * float64(time.Second))
	var out output
	var err error
	if *trace == 1 {
		out, err = runTraced(w, *seed, dur, os.Stdout)
	} else {
		out, err = runEndToEnd(w, *seed, dur, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp generates the workload's inputs, then builds the stack
// w.setupReps times, keeping the last; it returns the median build time.
func setUp(w workload, seed uint64) (instance, float64, error) {
	prepareInputs(w, seed)
	var in instance
	var times []float64
	for r := 0; r < w.setupReps; r++ {
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		in, err = w.build(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return in, median(times), nil
}

// warm lets caches fill and lazy set-up finish before timing. Pass-based
// grow-churn starts every pass on a fresh structure and is not warmed.
func warm(w workload, in instance) {
	if w.name == "grow-churn" {
		return
	}
	runLoop(in, w.clients, 0, 0, 1000/scale+1)
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w workload, seed uint64, dur time.Duration, log io.Writer) (output, error) {
	in, setupS, err := setUp(w, seed)
	if err != nil {
		return output{}, err
	}
	defer in.close()
	warm(w, in)
	pass := w.passLen()
	res := runLoop(in, w.clients, pass, dur, 0)
	runtime.GC()
	heap := heapInuseMB()
	stored, user := in.space()
	maxSteps := max(res.maxSteps, in.worstOpSteps())
	attempted, failed := res.ops, res.failed
	updates, updatePass := res, pass
	// Read-only workloads time their update path in a probe phase after
	// the timed one.
	if p, ok := in.(interface{ probe() instance }); ok {
		updates, updatePass = runLoop(p.probe(), 1, 0, dur/3, 0), 0
		attempted += updates.ops
		failed += updates.failed
	}
	ops := float64(res.ops)
	m := map[string]float64{
		"setup_s":                    setupS,
		"ops_per_s":                  res.rate(pass),
		"lookup_p50_us":              res.quantile(classLookup, 0.50, pass) / 1e3,
		"lookup_p99_us":              res.quantile(classLookup, 0.99, pass) / 1e3,
		"update_p50_us":              updates.quantile(classUpdate, 0.50, updatePass) / 1e3,
		"update_p99_us":              updates.quantile(classUpdate, 0.99, updatePass) / 1e3,
		"steps_per_op":               float64(res.steps) / ops,
		"max_op_steps":               float64(maxSteps),
		"alloc_bytes_per_op":         float64(res.allocBytes) / ops,
		"allocs_per_op":              float64(res.allocs) / ops,
		"stored_bytes_per_user_byte": stored / user,
		"heap_inuse_mb":              heap,
		"fail_frac":                  float64(res.failed) / ops,
	}
	fmt.Fprintf(log, "workload %s seed %d: %d clients, %d ops in %.2fs; latency samples: %d lookups, %d updates\n",
		w.name, seed, w.clients, res.ops, res.wall.Seconds(), len(res.lat[classLookup]), len(updates.lat[classUpdate]))
	out := output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		fmt.Fprintf(log, "  %-28s %14.4f %s\n", d.name, m[d.name], d.unit)
		out.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	for _, d := range printedOnly {
		fmt.Fprintf(log, "  %-28s %14.4f %s (not declared)\n", d.name, m[d.name], d.unit)
	}
	return out, nil
}

// prepareInputs generates a workload's inputs ahead of set-up.
func prepareInputs(w workload, seed uint64) {
	switch w.name {
	case "read-uniform":
		cachedRecords(seed, readKeys/scale)
	case "degraded-read":
		cachedRecords(seed, degradedKeys/scale)
	case "grow-churn":
		cachedChurnOps(seed)
	}
}

var churnCache struct {
	seed uint64
	ops  []churnOp
}

func cachedChurnOps(seed uint64) []churnOp {
	if churnCache.ops == nil || churnCache.seed != seed || len(churnCache.ops) != churnPass/scale {
		churnCache.ops = churnOps(seed, churnPass/scale)
		churnCache.seed = seed
	}
	return churnCache.ops
}
