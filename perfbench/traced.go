package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// tracedCap bounds the ops recorded per client in a traced run; the
// tracer records one op in tracedEvery so the sample spans the phase.
const (
	tracedCap   = 20000
	tracedEvery = 4
)

// layerRun is everything a traced run gathers for the ledger.
type layerRun struct {
	w        workload
	untraced loopResult // tracing off: overhead baseline, GC figures
	traced   loopResult
	core     loopResult // the same stream straight into internal/core
	tr       *tracer
	replay   replayOut

	// Stack counters, as deltas over the traced phase or final values.
	retries, hedges, faults int64
	rebuilds                int64
	migratingFrac           float64
	cascadeFrac             float64
	bulkStepsPerKey         float64
	coreLookupNs            float64
	coreUpdateNs            float64
	coreUpdateFailed        int64
	sched                   obs.SchedSnapshot // delta; zero without a scheduler
	obsMembersNs            map[string]int64
}

// runTraced measures the per-layer ledger: an untraced phase (the
// overhead baseline), the same stream sent straight into internal/core
// under the same conditions, a traced phase through the benchmark's
// wrappers, and a replay of the leaf layers on what it recorded.
func runTraced(w workload, seed uint64, dur time.Duration, log io.Writer) (output, error) {
	prepareInputs(w, seed)
	in, err := w.build(seed)
	if err != nil {
		return output{}, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	warm(w, in)
	lr := layerRun{w: w}
	lr.untraced = runLoop(in, w.clients, w.passLen(), dur/2, 0)

	tr := newTracer(w.clients, tracedCap/scale, tracedEvery)
	var rp replayer
	switch v := in.(type) {
	case *basicBench:
		lr.core = runLoop(coreBasic{v}, w.clients, w.passLen(), dur/2, 0)
		lr.coreLookupNs = meanNs(lr.core.lat[classLookup])
		h0, f0 := v.b.Health(), v.b.FaultCount()
		lr.traced = runLoop(v.traced(tr), w.clients, w.passLen(), dur/2, 0)
		v.b.SetHook(nil)
		h1 := v.b.Health()
		lr.retries, lr.hedges, lr.faults = h1.Retries-h0.Retries, h1.Hedges-h0.Hedges, v.b.FaultCount()-f0
		lr.coreUpdateNs, lr.coreUpdateFailed = v.coreUpdateProbe(1000 / scale)
		lr.bulkStepsPerKey = float64(v.bulkIOs) / float64(v.n)
		m := v.b.Machine()
		rp = replayer{m: m, codec: bucket.Codec{B: m.B(), SatWords: 1 + basicSatWords}, bucketDisks: m.D(), graph: v.twin.Graph()}
	case *growChurn:
		cc := newCoreChurn(v)
		lr.core = runLoop(cc, 1, w.passLen(), 0, len(v.ops))
		lr.traced = runLoop(v.traced(tr), 1, w.passLen(), dur/2, 0)
		v.d.SetHook(nil)
		lr.coreLookupNs = meanNs(lr.core.lat[classLookup])
		lr.coreUpdateNs = meanNs(lr.core.lat[classUpdate])
		lr.migratingFrac = float64(cc.migrating) / float64(lr.core.ops)
		lr.rebuilds = v.d.Rebuilds()
		parts, err := dictParts(v.d)
		if err != nil {
			return output{}, err
		}
		lr.cascadeFrac = parts.cascadeFrac()
		rp = dictReplayer(parts.machines[0], seed)
	case *zipfBench:
		direct, err := newZipf(seed, nil, true)
		if err != nil {
			return output{}, fmt.Errorf("direct set-up: %w", err)
		}
		warm(w, direct)
		lr.core = runLoop(direct, w.clients, 0, dur/2, 0)
		direct.close()
		tr.active.Store(false)
		z, err := newZipf(seed, tr, true)
		if err != nil {
			return output{}, fmt.Errorf("traced set-up: %w", err)
		}
		warm(w, z)
		s0, members0 := z.rounds(), tr.obsTotals()
		tr.active.Store(true)
		lr.traced = runLoop(z, w.clients, 0, dur/2, 0)
		z.flush()
		lr.sched = schedDelta(z.rounds(), s0)
		lr.obsMembersNs = subTotals(tr.obsTotals(), members0)
		z.core.SetHook(nil)
		lr.rebuilds = z.core.Stats().Rebuilds
		for _, r := range tr.records() {
			if r.migrating {
				lr.migratingFrac++
			}
		}
		lr.migratingFrac /= float64(max(1, len(tr.records())))
		lr.coreLookupNs = tr.coreLookupNs()
		lr.coreUpdateNs = tr.coreUpdateNs()
		parts, err := savedParts(coreDict{z.core}.save)
		if err != nil {
			return output{}, err
		}
		lr.cascadeFrac = parts.cascadeFrac()
		rp = dictReplayer(parts.machines[0], seed)
		z.close()
	}
	lr.tr = tr
	lr.replay = rp.run(tr)
	if err := tr.writeSpans(filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))); err != nil {
		return output{}, err
	}
	m := lr.ledger()
	failed := lr.untraced.failed + lr.traced.failed + lr.core.failed + lr.coreUpdateFailed
	attempted := lr.untraced.ops + lr.traced.ops + lr.core.ops
	fmt.Fprintf(log, "workload %s seed %d traced: %d ops recorded of %d traced, %d spans\n",
		w.name, seed, len(tr.records()), lr.traced.ops, len(tr.spans))
	out := output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		fmt.Fprintf(log, "  %-36s %14.4f %s\n", d.name, m[d.name], d.unit)
		out.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out, nil
}

// coreUpdateProbe times n insert+delete pairs of fresh keys straight
// into the core view, counting the pairs that failed.
func (bb *basicBench) coreUpdateProbe(n int) (ns float64, failed int64) {
	m := bb.b.Machine()
	var total int64
	for j := 0; j < n; j++ {
		key := bb.ks.key(coreProbeKeys + uint64(j))
		sat := satOf(key, basicSatWords)
		t := now()
		err := bb.twin.InsertOp(m.NewOp(0, 1), key, sat)
		present := bb.twin.DeleteOp(m.NewOp(0, 1), key)
		total += since(t)
		if err != nil || !present {
			failed++
		}
	}
	return float64(total) / float64(2*n), failed
}

func schedDelta(a, b obs.SchedSnapshot) obs.SchedSnapshot {
	return obs.SchedSnapshot{
		Lookups:     a.Lookups - b.Lookups,
		Rounds:      a.Rounds - b.Rounds,
		RoundsSaved: a.RoundsSaved - b.RoundsSaved,
		Writes:      a.Writes - b.Writes,
		Flushes:     a.Flushes - b.Flushes,
		Overloads:   a.Overloads - b.Overloads,
	}
}

func subTotals(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// ---------------------------------------------------------------------
// Replay of the leaf layers.

type replayer struct {
	m           *pdm.Machine
	codec       bucket.Codec
	bucketDisks int // blocks on disks below this are bucket blocks
	graph       expander.Graph
}

// dictReplayer replays a Dict's batches on a restored copy of its active
// machine. Buckets are the membership dictionary's, on the first half of
// the disks, one key plus a one-word satellite and its fragment index.
func dictReplayer(m *pdm.Machine, seed uint64) replayer {
	d := m.D() / 2
	return replayer{m: m, codec: bucket.Codec{B: m.B(), SatWords: 2}, bucketDisks: d,
		graph: expander.NewFamily(1<<63, d, 1024, seed)}
}

type replayOut struct {
	readNs, writeNs         int64
	readBlocks, writeBlocks int64
	readAlloc               uint64
	findNs, findBlocks      int64
	decodeAlloc             uint64
	decodeBlocks            int64
	neighborsNs             int64
	neighborsKeys           int64
	diskBlocks              []int64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// run replays every distinct recorded batch through BatchReadOp and
// BatchWriteOp (writes put back the blocks' current contents), then
// bucket.Codec.Find and Decode on the blocks read, then
// expander.Graph.Neighbors on the op keys. Each batch's replayed time is
// charged to every recorded op that rode it.
func (rp replayer) run(tr *tracer) replayOut {
	out := replayOut{diskBlocks: make([]int64, rp.m.D())}
	owners := map[*batch][]*opRec{}
	var order []*batch
	for _, r := range tr.records() {
		for _, b := range r.batches {
			if owners[b] == nil {
				order = append(order, b)
			}
			owners[b] = append(owners[b], r)
		}
	}
	alloc := rp.m.BlocksAllocated()
	valid := func(addrs []pdm.Addr) []pdm.Addr {
		keep := addrs[:0]
		for _, a := range addrs {
			if a.Disk < len(alloc) && a.Block < alloc[a.Disk] {
				keep = append(keep, a)
			}
		}
		return keep
	}
	op := rp.m.NewOp(0, 1)
	const keepBlocks = 4096
	var kept [][]uint64
	a0 := totalAlloc()
	for _, b := range order {
		if b.write {
			continue
		}
		addrs := valid(b.addrs)
		if len(addrs) == 0 {
			continue
		}
		t := now()
		blocks := rp.m.BatchReadOp(op, addrs)
		b.ns = since(t)
		out.readNs += b.ns
		out.readBlocks += int64(len(addrs))
		for i, a := range addrs {
			out.diskBlocks[a.Disk]++
			if a.Disk >= rp.bucketDisks {
				continue
			}
			if len(kept) < keepBlocks {
				kept = append(kept, blocks[i])
			}
			for _, r := range owners[b] {
				t := now()
				rp.codec.Find(blocks[i], r.key)
				ns := since(t)
				r.bucketNs += ns
				out.findNs += ns
				out.findBlocks++
			}
		}
	}
	out.readAlloc = totalAlloc() - a0
	a0 = totalAlloc()
	for _, blk := range kept {
		rp.codec.Decode(blk)
	}
	out.decodeAlloc = totalAlloc() - a0
	out.decodeBlocks = int64(len(kept))
	for _, b := range order {
		if !b.write {
			continue
		}
		addrs := valid(b.addrs)
		if len(addrs) == 0 {
			continue
		}
		writes := make([]pdm.BlockWrite, len(addrs))
		for i, a := range addrs {
			writes[i] = pdm.BlockWrite{Addr: a, Data: rp.m.Peek(a)}
			out.diskBlocks[a.Disk]++
		}
		t := now()
		rp.m.BatchWriteOp(op, writes)
		b.ns = since(t)
		out.writeNs += b.ns
		out.writeBlocks += int64(len(addrs))
	}
	dst := make([]int, 0, 64)
	for _, r := range tr.records() {
		t := now()
		dst = rp.graph.Neighbors(r.key, dst[:0])
		out.neighborsNs += since(t)
		out.neighborsKeys++
	}
	return out
}

// ---------------------------------------------------------------------
// The ledger.

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger folds a traced run into the per-layer metrics. Self time is a
// layer's span time minus the time of the layer below it; the leaf
// layers' times come from the replay, charged per op.
func (lr *layerRun) ledger() map[string]float64 {
	recs := lr.tr.records()
	n := float64(len(recs))
	rp := lr.replay
	nbNs := ratio(float64(rp.neighborsNs), float64(rp.neighborsKeys))
	zipf := lr.w.name == "served-zipf"

	var total, named, schedSelf, backend, obsNs, pdmNs, bucketNs, expNs float64
	var readBatches, blocksRead, blocksWritten, events, innerN float64
	for _, r := range recs {
		t := float64(r.root.End - r.root.Start - r.traceNs)
		total += t
		for _, b := range r.batches {
			pdmNs += float64(b.ns)
			if b.write {
				blocksWritten += float64(len(b.addrs))
			} else {
				readBatches++
				blocksRead += float64(len(b.addrs))
				expNs += nbNs
			}
		}
		bucketNs += float64(r.bucketNs)
		obsNs += float64(r.obsNs)
		events += float64(r.events)
		innerN += float64(r.innerN)
		if zipf {
			named += max(0, t-float64(r.innerNs))
			schedSelf += max(0, float64(r.innerNs-r.backendNs))
			backend += float64(r.backendNs)
		}
	}
	pdmdictSelf := meanNs(lr.untraced.lat[:]...) - meanNs(lr.core.lat[:]...)
	coreCall := backend
	if !zipf {
		coreCall = max(0, total-n*max(0, pdmdictSelf))
	}
	// Replayed leaf times are estimates; if they exceed the core call
	// they are scaled to fit it, so self fractions never sum past 1.
	if children := pdmNs + bucketNs + expNs + obsNs; children > coreCall && children > 0 {
		s := coreCall / children
		pdmNs, bucketNs, expNs, obsNs = pdmNs*s, bucketNs*s, expNs*s, obsNs*s
	}
	coreSelf := max(0, coreCall-pdmNs-bucketNs-expNs-obsNs)

	var maxDisk, sumDisk float64
	for _, v := range rp.diskBlocks {
		sumDisk += float64(v)
		maxDisk = max(maxDisk, float64(v))
	}
	tops := float64(lr.traced.ops)
	untracedRate := ratio(float64(lr.untraced.ops), lr.untraced.wall.Seconds())
	tracedRate := ratio(tops, lr.traced.wall.Seconds())
	s := lr.sched
	chainEvents := float64(lr.tr.chainEvents.Load())
	members := lr.obsMembersNs
	var memberSum int64
	for _, v := range members {
		memberSum += v
	}
	return map[string]float64{
		"pdm.read_batches_per_op":             ratio(readBatches, n),
		"pdm.blocks_read_per_op":              ratio(blocksRead, n),
		"pdm.blocks_written_per_op":           ratio(blocksWritten, n),
		"pdm.read_ns_per_block":               ratio(float64(rp.readNs), float64(rp.readBlocks)),
		"pdm.write_ns_per_block":              ratio(float64(rp.writeNs), float64(rp.writeBlocks)),
		"pdm.read_alloc_bytes_per_block":      ratio(float64(rp.readAlloc), float64(rp.readBlocks)),
		"pdm.disk_skew":                       ratio(maxDisk, sumDisk/float64(max(1, len(rp.diskBlocks)))),
		"pdm.retries_per_op":                  ratio(float64(lr.retries), tops),
		"pdm.hedges_per_op":                   ratio(float64(lr.hedges), tops),
		"pdm.self_frac":                       ratio(pdmNs, total),
		"bucket.find_ns_per_block":            ratio(float64(rp.findNs), float64(rp.findBlocks)),
		"bucket.decode_alloc_bytes_per_block": ratio(float64(rp.decodeAlloc), float64(rp.decodeBlocks)),
		"bucket.self_frac":                    ratio(bucketNs, total),
		"expander.neighbors_ns_per_key":       nbNs,
		"expander.self_frac":                  ratio(expNs, total),
		"core.lookup_ns":                      lr.coreLookupNs,
		"core.update_ns":                      lr.coreUpdateNs,
		"core.self_frac":                      ratio(coreSelf, total),
		"core.rebuilds":                       float64(lr.rebuilds),
		"core.migrating_op_frac":              lr.migratingFrac,
		"core.cascade_frac":                   lr.cascadeFrac,
		"core.bulkload_steps_per_key":         lr.bulkStepsPerKey,
		"pdmdict.self_ns_per_op":              pdmdictSelf,
		"pdmdict.allocs_per_op":               ratio(float64(lr.untraced.allocs), float64(lr.untraced.ops)) - ratio(float64(lr.core.allocs), float64(lr.core.ops)),
		"named.self_ns_per_op":                ratio(named, n),
		"named.inner_ops_per_op":              ratio(innerN, n),
		"obs.events_per_op":                   ratio(events, n),
		"obs.hook_ns_per_event":               ratio(float64(lr.tr.chainNs.Load()), chainEvents),
		"obs.monitor_ns_per_event":            ratio(float64(lr.tr.chainNs.Load()-memberSum), chainEvents),
		"obs.accountant_ns_per_event":         ratio(float64(members["accountant"]), chainEvents),
		"obs.collector_ns_per_event":          ratio(float64(members["collector"]), chainEvents),
		"obs.self_frac":                       ratio(obsNs, total),
		"sched.coalesce_factor":               ratio(float64(s.Lookups), float64(s.Rounds)),
		"sched.rounds_saved_frac":             ratio(float64(s.RoundsSaved), float64(s.Lookups)),
		"sched.wait_ns":                       ratio(schedSelf, innerN),
		"sched.backend_ns_per_round":          ratio(float64(lr.tr.backendNs.Load()), float64(s.Rounds+s.Flushes)),
		"sched.group_commit_size":             ratio(float64(s.Writes), float64(s.Flushes)),
		"sched.log_bytes_per_write":           ratio(float64(lr.tr.logBytes.Load()), float64(s.Writes)),
		"sched.overloads":                     float64(s.Overloads),
		"sched.self_frac":                     ratio(schedSelf, total),
		"fault.faults_per_op":                 ratio(float64(lr.faults), tops),
		"runtime.gc_cpu_frac":                 lr.untraced.gcCPUFrac,
		"runtime.gc_cycles_per_kop":           ratio(float64(lr.untraced.gcCycles)*1000, float64(lr.untraced.ops)),
		"trace.overhead_frac":                 1 - ratio(tracedRate, untracedRate),
	}
}
