package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdmdict"
	"pdmdict/internal/core"
	"pdmdict/internal/pdm"
)

// The tracer measures layers from outside: it wraps every call the
// benchmark makes into a layer in a span, and owns the wrappers the
// stack calls back through (a pdm.Hook, the Dictionary under NamedDict,
// the scheduler's Backend). Spans and batches are kept in memory and
// written out when the run ends. Nothing inside the program is
// instrumented.

var epoch = time.Now()

func now() int64          { return int64(time.Since(epoch)) }
func since(t int64) int64 { return now() - t }

// span is one timed call into a layer. Spans of one benchmark operation
// share its request id; Parent is the enclosing span's ID (0 = root).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// batch is one recorded machine batch.
type batch struct {
	write bool
	addrs []pdm.Addr
	ns    int64 // replayed duration
}

// opRec is everything recorded about one benchmark operation.
type opRec struct {
	key       uint64
	root      span
	innerNs   int64 // time in spans one layer below the root
	innerN    int
	backendNs int64 // time in backend calls that served this op
	obsNs     int64 // time in the obs hook chain for this op's events
	traceNs   int64 // the recording hook's own time for this op's events
	events    int
	migrating bool
	batches   []*batch
	bucketNs  int64
}

type tracer struct {
	cap     int // ops recorded per client
	every   int // one op in every is recorded
	clients []tracerClient
	active  atomic.Bool // recording; off while a stack is built or warmed

	mu    sync.Mutex
	live  map[uint64]*opRec // token ID → op, while in flight
	spans []span
	ids   atomic.Uint64 // span IDs
	req   atomic.Uint64 // request IDs

	hook  *recHook
	chain pdm.Hook // obs chain the hook forwards to, nil when none
	obs   map[string]*atomic.Int64

	chainEvents atomic.Int64 // events forwarded to the obs chain
	chainNs     atomic.Int64 // time inside the obs chain

	backendNs   atomic.Int64
	lookupNs    atomic.Int64 // backend lookup time net of the obs chain
	lookupKeys  atomic.Int64
	updateNs    atomic.Int64 // backend update time net of the obs chain
	updateCalls atomic.Int64
	logBytes    atomic.Int64

	migrating func() bool // nil when the stack cannot migrate
}

type tracerClient struct {
	cur  *opRec
	recs []*opRec
	ops  int
}

func newTracer(clients, cap, every int) *tracer {
	tr := &tracer{cap: cap, every: every, clients: make([]tracerClient, clients), live: make(map[uint64]*opRec), obs: map[string]*atomic.Int64{}}
	tr.hook = &recHook{tr: tr}
	tr.active.Store(true)
	return tr
}

// obsTotals snapshots the time spent in each timed obs chain member.
func (tr *tracer) obsTotals() map[string]int64 {
	out := map[string]int64{}
	for k, v := range tr.obs {
		out[k] = v.Load()
	}
	return out
}

func (tr *tracer) coreLookupNs() float64 {
	return ratio(float64(tr.lookupNs.Load()), float64(tr.lookupKeys.Load()))
}

func (tr *tracer) coreUpdateNs() float64 {
	return ratio(float64(tr.updateNs.Load()), float64(tr.updateCalls.Load()))
}

// wrapObs times one member of the obs chain.
func (tr *tracer) wrapObs(name string, h pdm.Hook) pdm.Hook {
	n := &atomic.Int64{}
	tr.obs[name] = n
	return timedHook{h: h, ns: n}
}

type timedHook struct {
	h  pdm.Hook
	ns *atomic.Int64
}

func (t timedHook) Event(ev pdm.Event) {
	t0 := now()
	t.h.Event(ev)
	t.ns.Add(since(t0))
}

func (tr *tracer) addSpan(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

var noEnd = func() {}

// begin opens the root span of client c's next operation, registering
// its token (if any) so the hook can attribute batches to it. A nil
// tracer records nothing.
func (tr *tracer) begin(c int, op *pdm.Op, key uint64, name string) func() {
	if tr == nil {
		return noEnd
	}
	tc := &tr.clients[c]
	tc.ops++
	if !tr.active.Load() || tc.ops%tr.every != 0 || len(tc.recs) >= tr.cap {
		tc.cur = nil
		return noEnd
	}
	rec := &opRec{key: key}
	if tr.migrating != nil {
		rec.migrating = tr.migrating()
	}
	tc.cur = rec
	if op != nil {
		tr.mu.Lock()
		tr.live[op.ID()] = rec
		tr.mu.Unlock()
	}
	rec.root = span{Name: name, Req: tr.req.Add(1), ID: tr.ids.Add(1), Start: now()}
	return func() {
		rec.root.End = now()
		if op != nil {
			tr.mu.Lock()
			delete(tr.live, op.ID())
			tr.mu.Unlock()
		}
		tr.addSpan(rec.root)
		tc.recs = append(tc.recs, rec)
		tc.cur = nil
	}
}

// inner opens a span one layer below client c's current root span, for
// the call made under token op.
func (tr *tracer) inner(c int, op *pdm.Op, name string) func() {
	if tr == nil || tr.clients[c].cur == nil {
		return noEnd
	}
	rec := tr.clients[c].cur
	tr.mu.Lock()
	tr.live[op.ID()] = rec
	tr.mu.Unlock()
	s := span{Name: name, Req: rec.root.Req, ID: tr.ids.Add(1), Parent: rec.root.ID, Start: now()}
	return func() {
		s.End = now()
		tr.mu.Lock()
		delete(tr.live, op.ID())
		tr.mu.Unlock()
		rec.innerNs += s.End - s.Start
		rec.innerN++
		tr.addSpan(s)
	}
}

// recsForLocked returns the recorded ops an event belongs to.
func (tr *tracer) recsForLocked(ev *pdm.Event, out []*opRec) []*opRec {
	if r := tr.live[ev.Op]; r != nil && ev.Op != 0 {
		out = append(out, r)
	}
	for _, id := range ev.Ops {
		if r := tr.live[id]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// recHook is the benchmark's pdm.Hook: it records each recorded op's
// batches and times the obs chain it forwards to.
type recHook struct {
	tr      *tracer
	scratch []*opRec // guarded by tr.mu
}

func (h *recHook) Event(ev pdm.Event) {
	tr := h.tr
	var obsNs int64
	chained := tr.chain != nil
	if chained {
		t0 := now()
		tr.chain.Event(ev)
		obsNs = since(t0)
		if tr.active.Load() {
			tr.chainEvents.Add(1)
			tr.chainNs.Add(obsNs)
		}
	}
	t1 := now()
	tr.mu.Lock()
	recs := tr.recsForLocked(&ev, h.scratch[:0])
	h.scratch = recs
	if len(recs) > 0 {
		isBatch := (ev.Kind == pdm.EventRead || ev.Kind == pdm.EventWrite) && !strings.HasPrefix(ev.Tag, pdm.FaultTagPrefix)
		var b *batch
		if isBatch && len(ev.Addrs) > 0 {
			b = &batch{write: ev.Kind == pdm.EventWrite, addrs: append([]pdm.Addr(nil), ev.Addrs...)}
		}
		self := since(t1) / int64(len(recs))
		for _, r := range recs {
			if chained {
				r.obsNs += obsNs
				r.events++
			}
			if b != nil {
				r.batches = append(r.batches, b)
			}
			r.traceNs += self
		}
	}
	tr.mu.Unlock()
}

// timedBackend is the benchmark's sched.Backend: it times every call
// the scheduler makes into core and charges it to the ops it served.
type timedBackend struct {
	d  *core.Dict
	tr *tracer
}

// charge books one backend call of ns, of which obsNs ran in the obs
// chain: the scheduler dispatches one window at a time, so the chain's
// time during the call is the call's own.
func (b *timedBackend) charge(ops []*pdm.Op, ns, obsNs int64, lookup bool) {
	b.tr.backendNs.Add(ns)
	if lookup {
		b.tr.lookupNs.Add(ns - obsNs)
		b.tr.lookupKeys.Add(int64(len(ops)))
	} else {
		b.tr.updateNs.Add(ns - obsNs)
		b.tr.updateCalls.Add(1)
	}
	b.tr.mu.Lock()
	for _, op := range ops {
		if r := b.tr.live[op.ID()]; r != nil {
			r.backendNs += ns
		}
	}
	b.tr.mu.Unlock()
}

func (b *timedBackend) LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	t, o := now(), b.tr.chainNs.Load()
	sats, oks := b.d.LookupSharedOp(ops, keys)
	b.charge(ops, since(t), b.tr.chainNs.Load()-o, true)
	return sats, oks
}

func (b *timedBackend) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	t, o := now(), b.tr.chainNs.Load()
	err := b.d.InsertOp(op, x, sat)
	b.charge([]*pdm.Op{op}, since(t), b.tr.chainNs.Load()-o, false)
	return err
}

func (b *timedBackend) DeleteOp(op *pdm.Op, x pdm.Word) bool {
	t, o := now(), b.tr.chainNs.Load()
	ok := b.d.DeleteOp(op, x)
	b.charge([]*pdm.Op{op}, since(t), b.tr.chainNs.Load()-o, false)
	return ok
}

// countingWriter counts the intent-log bytes the scheduler writes.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// records returns every recorded op, client by client.
func (tr *tracer) records() []*opRec {
	var out []*opRec
	for c := range tr.clients {
		out = append(out, tr.clients[c].recs...)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------
// Dictionary fronts under NamedDict.

// clientDict is the Dictionary a client's NamedDict sits on: it sends
// each call through the scheduler under a token minted for that client
// (what Scheduled.LookupClient does), wraps it in a span when traced,
// and sums the tokens' modeled steps.
type clientDict struct {
	c      int
	mint   func(c int) *pdm.Op
	lookup func(op *pdm.Op, key uint64) ([]uint64, bool, error)
	insert func(op *pdm.Op, key uint64, sat []uint64) error
	del    func(op *pdm.Op, key uint64) (bool, error)
	inner  pdmdict.Dictionary
	steps  int64
	tr     *tracer
}

func (cd *clientDict) Lookup(key uint64) ([]uint64, bool) {
	op := cd.mint(cd.c)
	end := cd.tr.inner(cd.c, op, "sched.lookup")
	sat, ok, err := cd.lookup(op, key)
	end()
	cd.steps += op.MaxMachineSteps()
	return sat, ok && err == nil
}

func (cd *clientDict) Contains(key uint64) bool {
	_, ok := cd.Lookup(key)
	return ok
}

func (cd *clientDict) Insert(key uint64, sat []uint64) error {
	op := cd.mint(cd.c)
	end := cd.tr.inner(cd.c, op, "sched.insert")
	err := cd.insert(op, key, sat)
	end()
	cd.steps += op.MaxMachineSteps()
	return err
}

func (cd *clientDict) Delete(key uint64) bool {
	op := cd.mint(cd.c)
	end := cd.tr.inner(cd.c, op, "sched.delete")
	ok, err := cd.del(op, key)
	end()
	cd.steps += op.MaxMachineSteps()
	return ok && err == nil
}

func (cd *clientDict) Len() int                 { return cd.inner.Len() }
func (cd *clientDict) IOStats() pdmdict.IOStats { return cd.inner.IOStats() }
