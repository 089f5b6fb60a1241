package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"

	"pdmdict"
	"pdmdict/internal/core"
	"pdmdict/internal/fault"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// workload is one named input set: how to build the stack under test,
// how many closed-loop clients drive it, and why it exists. The reasons
// are repeated, in one line each, in BENCHMARK.json.
type workload struct {
	name      string
	clients   int
	pass      int // ops per pass for pass-based workloads, 0 = time-based
	setupReps int // set-ups per run; setup_s is their median (cheap set-ups repeat more)
	// build constructs and preloads the stack; only build is timed for
	// setup_s.
	build func(seed uint64) (instance, error)
}

var workloads = []workload{
	{name: "read-uniform", clients: 2, setupReps: 5, build: buildReadUniform},
	{name: "grow-churn", clients: 1, pass: churnPass, setupReps: 101, build: buildGrowChurn},
	{name: "served-zipf", clients: 2, setupReps: 5, build: buildServedZipf},
	{name: "degraded-read", clients: 1, pass: degradedKeys, setupReps: 5, build: buildDegradedRead},
}

// passLen is the workload's pass at the current scale.
func (w workload) passLen() int { return w.pass / scale }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale shrinks every workload's key count for the package's own tests.
var scale = 1

const (
	basicSatWords = 2
	churnPass     = 80000
	readKeys      = 1 << 18
	degradedKeys  = 1 << 16
	// Key index ranges of the update probes and grow-churn's misses;
	// preloaded, inserted and absent keys take indices far beneath.
	probeKeys     = 1 << 40
	coreProbeKeys = 1 << 41
	missKeys      = 1 << 42
	zipfNames     = 8192
	zipfValWords  = 32
)

// ---------------------------------------------------------------------
// read-uniform and degraded-read: a BulkLoaded Section 4.1 dictionary.

type basicBench struct {
	b       *pdmdict.Basic
	twin    *core.BasicDict // direct core view of the same machine
	ks      keyspace
	n       int
	try     bool // LookupTry (degraded-read) instead of Lookup
	absent  int  // one lookup in absent is for an absent key (0 = none)
	rngs    []*rand.Rand
	order   []int // degraded-read pass order
	bulkIOs int64
	tr      *tracer
}

func basicRecords(ks keyspace, n int) []pdmdict.Record {
	recs := make([]pdmdict.Record, n)
	sats := make([]uint64, n*basicSatWords)
	for i := range recs {
		k := ks.key(uint64(i))
		s := sats[i*basicSatWords : (i+1)*basicSatWords]
		copy(s, satOf(k, basicSatWords))
		recs[i] = pdmdict.Record{Key: k, Sat: s}
	}
	return recs
}

// recordCache keeps the generated records across the set-ups of one run:
// generating inputs is not part of set-up.
var recordCache struct {
	seed uint64
	n    int
	recs []pdmdict.Record
}

func cachedRecords(seed uint64, n int) []pdmdict.Record {
	if recordCache.recs == nil || recordCache.seed != seed || recordCache.n != n {
		recordCache.recs = basicRecords(newKeyspace(seed), n)
		recordCache.seed, recordCache.n = seed, n
	}
	return recordCache.recs
}

func basicConfig(n int, seed uint64, replicas int) (pdmdict.BasicOptions, core.BasicConfig) {
	opts := pdmdict.BasicOptions{
		Options:  pdmdict.Options{Capacity: n + n/16, SatWords: basicSatWords, Seed: seed},
		Replicas: replicas,
	}
	// The same configuration as pdmdict.NewBasic hands to core.
	cfg := core.BasicConfig{Capacity: opts.Capacity, SatWords: basicSatWords, Seed: seed}
	if replicas > 1 {
		cfg.K, cfg.Replicate = replicas, true
	}
	return opts, cfg
}

func newBasicBench(seed uint64, n, replicas int) (*basicBench, error) {
	recs := cachedRecords(seed, n)
	opts, cfg := basicConfig(n, seed, replicas)
	b, err := pdmdict.NewBasic(opts)
	if err != nil {
		return nil, err
	}
	if err := b.BulkLoad(recs); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	twin, err := core.NewBasic(b.Machine(), cfg)
	if err != nil {
		return nil, err
	}
	return &basicBench{b: b, twin: twin, ks: newKeyspace(seed), n: n, bulkIOs: b.IOStats().ParallelIOs}, nil
}

func buildReadUniform(seed uint64) (instance, error) {
	bb, err := newBasicBench(seed, readKeys/scale, 0)
	if err != nil {
		return nil, err
	}
	bb.absent = 10
	bb.rngs = []*rand.Rand{rng(seed, 1), rng(seed, 2)}
	return bb, nil
}

func buildDegradedRead(seed uint64) (instance, error) {
	n := degradedKeys / scale
	bb, err := newBasicBench(seed, n, 2)
	if err != nil {
		return nil, err
	}
	plan := fault.NewPlan(seed)
	plan.FailDisk(int(mix64(seed) % uint64(bb.b.Machine().D())))
	bb.b.SetFaultInjector(plan)
	bb.try = true
	bb.order = rng(seed, 3).Perm(n)
	return bb, nil
}

func (bb *basicBench) lookupKey(c, i int) (key uint64, present bool) {
	if bb.order != nil {
		return bb.ks.key(uint64(bb.order[i%len(bb.order)])), true
	}
	r := bb.rngs[c]
	if bb.absent > 0 && r.Intn(bb.absent) == 0 {
		return bb.ks.key(uint64(bb.n + r.Intn(bb.n))), false
	}
	return bb.ks.key(uint64(r.Intn(bb.n))), true
}

func (bb *basicBench) op(c, i int) (class, int64, bool) {
	key, present := bb.lookupKey(c, i)
	ctx := bb.b.MintOp(c, 1, obs.TagLookup)
	var sat []uint64
	var ok bool
	var err error
	end := bb.tr.begin(c, ctx.Op, key, "pdmdict.lookup")
	if bb.try {
		sat, ok, err = bb.b.LookupTryCtx(ctx, key)
	} else {
		sat, ok = bb.b.LookupCtx(ctx, key)
	}
	end()
	good := err == nil && ok == present && (!ok || satEqual(sat, key))
	return classLookup, ctx.Op.MaxMachineSteps(), good
}

// updateProbe is the update phase of a read-only workload: one client
// inserts fresh keys and deletes each again, on the same structure.
type updateProbe struct{ bb *basicBench }

func (bb *basicBench) probe() instance { return updateProbe{bb} }

func (p updateProbe) op(_, i int) (class, int64, bool) {
	b := p.bb.b
	key := p.bb.ks.key(probeKeys + uint64(i/2))
	if i%2 == 0 {
		ctx := b.MintOp(0, 1, obs.TagInsert)
		err := b.InsertCtx(ctx, key, satOf(key, basicSatWords))
		return classUpdate, ctx.Op.MaxMachineSteps(), err == nil
	}
	ctx := b.MintOp(0, 1, obs.TagDelete)
	present := b.DeleteCtx(ctx, key)
	return classUpdate, ctx.Op.MaxMachineSteps(), present
}

func (p updateProbe) modeledSteps() int64       { return p.bb.modeledSteps() }
func (p updateProbe) worstOpSteps() int64       { return 0 }
func (p updateProbe) space() (float64, float64) { return p.bb.space() }
func (p updateProbe) close()                    {}

// traced attaches the tracer: later ops open spans and the machine's
// batches reach the recording hook.
func (bb *basicBench) traced(tr *tracer) instance {
	bb.tr = tr
	bb.b.SetHook(tr.hook)
	return bb
}

func (bb *basicBench) modeledSteps() int64 { return bb.b.IOStats().ParallelIOs }
func (bb *basicBench) worstOpSteps() int64 { return 0 }
func (bb *basicBench) space() (float64, float64) {
	m := bb.b.Machine()
	return float64(m.TotalBlocks() * m.B() * 8), float64(bb.b.Len() * (1 + basicSatWords) * 8)
}
func (bb *basicBench) close() {}

// ---------------------------------------------------------------------
// grow-churn: the Theorem 7 Dict, grown from empty by a fixed op pass.

type churnOp struct {
	kind class
	del  bool
	hit  bool
	key  uint64
	sat  []uint64
}

type growChurn struct {
	opts    pdmdict.Options
	ops     []churnOp
	d       *pdmdict.Dict
	fresh   bool // d was just built and has served no pass yet
	doneIOs int64
	worst   int64
	tr      *tracer
}

func churnOps(seed uint64, n int) []churnOp {
	ks := newKeyspace(seed)
	r := rng(seed, 4)
	ops := make([]churnOp, n)
	sats := make([]uint64, n*basicSatWords)
	var live []uint64
	next := uint64(0)
	for i := range ops {
		p := r.Intn(100)
		switch {
		case p < 50 || len(live) == 0:
			k := ks.key(next)
			next++
			s := sats[i*basicSatWords : (i+1)*basicSatWords]
			copy(s, satOf(k, basicSatWords))
			ops[i] = churnOp{kind: classUpdate, key: k, sat: s}
			live = append(live, k)
		case p < 70:
			j := r.Intn(len(live))
			ops[i] = churnOp{kind: classUpdate, del: true, key: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case p < 95:
			ops[i] = churnOp{kind: classLookup, hit: true, key: live[r.Intn(len(live))]}
		default:
			ops[i] = churnOp{kind: classLookup, key: ks.key(missKeys + uint64(r.Int63n(1<<40)))}
		}
	}
	return ops
}

func churnOptions(seed uint64) pdmdict.Options {
	return pdmdict.Options{Capacity: 1024, SatWords: basicSatWords, Seed: seed}
}

func buildGrowChurn(seed uint64) (instance, error) {
	g := &growChurn{opts: churnOptions(seed), ops: cachedChurnOps(seed)}
	d, err := pdmdict.New(g.opts)
	if err != nil {
		return nil, err
	}
	g.d, g.fresh = d, true
	return g, nil
}

func (g *growChurn) beginPass() {
	if g.fresh {
		g.fresh = false
		return
	}
	g.finishPass()
	d, err := pdmdict.New(g.opts)
	if err != nil {
		panic(err) // the same options built the first pass's Dict
	}
	if g.tr != nil {
		d.SetHook(g.tr.hook)
	}
	g.d = d
}

// traced makes the next pass run on a fresh Dict under the tracer.
func (g *growChurn) traced(tr *tracer) instance {
	g.tr = tr
	g.fresh = false
	return g
}

func (g *growChurn) finishPass() {
	g.doneIOs += g.d.IOStats().ParallelIOs
	if w := g.d.WorstOpIOs(); w > g.worst {
		g.worst = w
	}
}

func (g *growChurn) op(_, i int) (class, int64, bool) {
	o := &g.ops[i%len(g.ops)]
	var good bool
	var ctx pdmdict.OpCtx
	switch {
	case o.kind == classLookup:
		ctx = g.d.MintOp(0, 1, obs.TagLookup)
		end := g.tr.begin(0, ctx.Op, o.key, "pdmdict.lookup")
		sat, ok := g.d.LookupCtx(ctx, o.key)
		end()
		good = ok == o.hit && (!ok || satEqual(sat, o.key))
	case o.del:
		ctx = g.d.MintOp(0, 1, obs.TagDelete)
		end := g.tr.begin(0, ctx.Op, o.key, "pdmdict.delete")
		good = g.d.DeleteCtx(ctx, o.key)
		end()
	default:
		ctx = g.d.MintOp(0, 1, obs.TagInsert)
		end := g.tr.begin(0, ctx.Op, o.key, "pdmdict.insert")
		good = g.d.InsertCtx(ctx, o.key, o.sat) == nil
		end()
	}
	return o.kind, ctx.Op.MaxMachineSteps(), good
}

func (g *growChurn) modeledSteps() int64 { return g.doneIOs + g.d.IOStats().ParallelIOs }
func (g *growChurn) worstOpSteps() int64 {
	if w := g.d.WorstOpIOs(); w > g.worst {
		return w
	}
	return g.worst
}
func (g *growChurn) space() (float64, float64) {
	parts, err := dictParts(g.d)
	if err != nil {
		panic(err)
	}
	return parts.storedBytes(), float64(g.d.Len() * (1 + basicSatWords) * 8)
}
func (g *growChurn) close() {}

// ---------------------------------------------------------------------
// served-zipf: the fskv default stack over string names.

type zipfBench struct {
	names   []string
	keys    []uint64        // the word key NamedDict hashes each name to
	issued  []atomic.Uint64 // latest version handed to a writer, per name
	acked   []atomic.Uint64 // latest version whose put returned, per name
	nds     []*pdmdict.NamedDict
	cds     []*clientDict
	rngs    []*rand.Rand
	zipfs   []*rand.Zipf
	bufs    [][]uint64
	base    dictLike
	core    *core.Dict // set on the direct stack
	flush   func()
	closeFn func() error
	logDir  string
	rounds  func() obs.SchedSnapshot
	tr      *tracer
}

// dictLike is the part of the Dict surface the zipf bench reads after
// its run; pdmdict.Dict and core.Dict both provide it through adapters.
type dictLike interface {
	pdmdict.Dictionary
	save(w io.Writer) error
}

func zipfName(i int) string { return fmt.Sprintf("vol%02d/file%05d.blk", i%37, i) }

// nameKey is NamedDict's name hash (FNV-1a, top bit cleared), used only
// to replay the leaf layers on the keys the names became.
func nameKey(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64() &^ (1 << 63)
}

// zipfValue fills v with name idx's satellite at version ver.
func zipfValue(v []uint64, idx int, ver uint64) {
	v[0], v[1] = uint64(idx), ver
	for j := 2; j < len(v); j++ {
		v[j] = mix64(uint64(idx)<<32 ^ ver<<8 ^ uint64(j))
	}
}

func zipfValueOK(v []uint64, idx int, lo, hi uint64) bool {
	if len(v) != zipfValWords || v[0] != uint64(idx) || v[1] < lo || v[1] > hi {
		return false
	}
	for j := 2; j < len(v); j++ {
		if v[j] != mix64(uint64(idx)<<32^v[1]<<8^uint64(j)) {
			return false
		}
	}
	return true
}

func zipfOptions(seed uint64) pdmdict.Options {
	// Capacity 2× the names: the preload never triggers a rebuild, so
	// the timed phase starts on a settled structure.
	return pdmdict.Options{Capacity: 2 * zipfNames, SatWords: pdmdict.NamedSatWords(zipfValWords), Seed: seed}
}

// obsChain builds the fskv hook chain Monitor(Tee(Collector, Ring,
// OpAccountant)); wrap, when non-nil, wraps each Tee member.
func obsChain(wrap func(name string, h pdm.Hook) pdm.Hook) pdm.Hook {
	var col, ring, acct pdm.Hook = obs.NewCollector(), obs.NewRing(256), obs.NewOpAccountant()
	if wrap != nil {
		col, ring, acct = wrap("collector", col), wrap("ring", ring), wrap("accountant", acct)
	}
	return obs.NewMonitor(obs.Tee(col, ring, acct), obs.DefaultRules()...)
}

func buildServedZipf(seed uint64) (instance, error) { return newZipf(seed, nil, false) }

// newZipf builds served-zipf on the public stack, or with direct set on
// internal/sched.New over core.Dict (traced when tr is non-nil).
func newZipf(seed uint64, tr *tracer, direct bool) (*zipfBench, error) {
	n := zipfNames / scale
	z := &zipfBench{names: make([]string, n), issued: make([]atomic.Uint64, n), acked: make([]atomic.Uint64, n), tr: tr}
	z.keys = make([]uint64, n)
	for i := range z.names {
		z.names[i] = zipfName(i)
		z.keys[i] = nameKey(z.names[i])
	}
	dir, err := os.MkdirTemp(workDir, "intentlog-")
	if err != nil {
		return nil, err
	}
	z.logDir = dir
	logf, err := os.Create(dir + "/intent.log")
	if err != nil {
		return nil, err
	}
	var front func(c int) *clientDict
	if direct {
		front, err = z.directStack(seed, logf)
	} else {
		front, err = z.publicStack(seed, logf)
	}
	if err != nil {
		logf.Close()
		return nil, err
	}
	// Preload every name at version 0 through a NamedDict over the bare
	// dictionary: a lone writer would otherwise park on the scheduler's
	// partial window.
	pre := pdmdict.NewNamed(z.base, zipfValWords)
	v := make([]uint64, zipfValWords)
	for i, name := range z.names {
		zipfValue(v, i, 0)
		if err := pre.Insert(name, v); err != nil {
			return nil, fmt.Errorf("preload %q: %w", name, err)
		}
	}
	for c := 0; c < 2; c++ {
		cd := front(c)
		z.cds = append(z.cds, cd)
		z.nds = append(z.nds, pdmdict.NewNamed(cd, zipfValWords))
		r := rng(seed, uint64(10+c))
		z.rngs = append(z.rngs, r)
		z.zipfs = append(z.zipfs, rand.NewZipf(r, 1.1, 1, uint64(n-1)))
		z.bufs = append(z.bufs, make([]uint64, zipfValWords))
	}
	return z, nil
}

func (z *zipfBench) op(c, _ int) (class, int64, bool) {
	r, nd, cd := z.rngs[c], z.nds[c], z.cds[c]
	idx := int(z.zipfs[c].Uint64())
	cd.steps = 0
	if r.Intn(10) != 0 {
		lo := z.acked[idx].Load()
		end := z.tr.begin(c, nil, z.keys[idx], "named.get")
		sat, ok := nd.Lookup(z.names[idx])
		end()
		hi := z.issued[idx].Load()
		return classLookup, cd.steps, ok && zipfValueOK(sat, idx, lo, hi)
	}
	// Each name has one writer, client idx%2, so versions only grow.
	if idx%2 != c {
		idx ^= 1
		if idx >= len(z.names) {
			idx -= 2
		}
	}
	ver := z.issued[idx].Add(1)
	zipfValue(z.bufs[c], idx, ver)
	end := z.tr.begin(c, nil, z.keys[idx], "named.put")
	err := nd.Insert(z.names[idx], z.bufs[c])
	end()
	if err == nil {
		z.acked[idx].Store(ver)
	}
	return classUpdate, cd.steps, err == nil
}

// drain closes the partial admission windows a finished client leaves
// behind: in deterministic mode a lone request waits for its window to
// fill, so the first client to stop flushes until its partner stops.
func (z *zipfBench) drain(othersRunning func() bool) {
	for othersRunning() {
		z.flush()
		runtime.Gosched()
	}
}

func (z *zipfBench) modeledSteps() int64 { return z.base.IOStats().ParallelIOs }
func (z *zipfBench) worstOpSteps() int64 { return 0 }
func (z *zipfBench) space() (float64, float64) {
	z.flush()
	parts, err := savedParts(z.base.save)
	if err != nil {
		panic(err)
	}
	return parts.storedBytes(), float64(z.base.Len() * (1 + zipfValWords) * 8)
}

func (z *zipfBench) close() {
	if z.closeFn != nil {
		_ = z.closeFn() // the scheduler drains; a log error already failed its writers
	}
	os.RemoveAll(z.logDir)
}
