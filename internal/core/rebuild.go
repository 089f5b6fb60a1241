package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// DictConfig parameterizes the fully dynamic dictionary.
type DictConfig struct {
	// InitialCapacity is the capacity of the first underlying structure.
	// Required. The dictionary grows without bound by global rebuilding.
	InitialCapacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Degree is the expander degree d; each underlying structure lives
	// on a machine with 2d disks. Theorem 7's d > 6(1+1/ɛ) applies.
	// 0 defaults to 20 (satisfying the constraint for the default ɛ).
	Degree int
	// BlockSize is B, the block capacity in words. 0 defaults to 64.
	BlockSize int
	// Epsilon is Theorem 7's performance parameter. 0 defaults to 0.5.
	Epsilon float64
	// MigrateBatch is the number of keys moved from the draining
	// structure per operation during a rebuild. 0 defaults to 4.
	MigrateBatch int
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// OneProbe selects the Section 6 one-probe structure as the bounded
	// building block instead of the Theorem 7 cascade: lookups stay at
	// exactly one parallel I/O even across rebuilds (the draining and
	// filling structures answer in the same parallel step), at twice the
	// disks.
	OneProbe bool
	// Seed selects the expanders; each rebuild generation derives a new
	// seed so a pathological key set cannot chase the structure forever.
	Seed uint64
}

func (c *DictConfig) normalize() error {
	if c.InitialCapacity <= 0 {
		return fmt.Errorf("core: DictConfig.InitialCapacity = %d, must be positive", c.InitialCapacity)
	}
	if c.Degree == 0 {
		c.Degree = 20
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.MigrateBatch == 0 {
		c.MigrateBatch = 4
	}
	if c.MigrateBatch < 1 {
		return fmt.Errorf("core: MigrateBatch %d below 1", c.MigrateBatch)
	}
	return nil
}

// DictStats aggregates per-operation costs under the wrapper's cost
// model: the two underlying structures occupy disjoint disks ("we can
// make any constant number of parallel instances of our dictionaries"),
// so an operation that touches both costs the maximum of the two
// machines' parallel I/Os, not the sum. Every operation carries an
// explicit token (pdm.Op) with per-machine step counters, so the ledger
// is exact even under concurrent callers: each op is charged precisely
// the batches it issued, never a neighbor's.
type DictStats struct {
	// Ops is the number of Lookup/Insert/Delete calls served (batched
	// lookups count one per key).
	Ops int64
	// ParallelIOs is the total cost: the sum over operations of the
	// steps charged to their tokens.
	ParallelIOs int64
	// WorstOp is the largest per-key cost observed: ⌈steps/keys⌉ for
	// every operation, batched or not. Global rebuilding keeps this a
	// constant — the point of the Overmars–van Leeuwen technique the
	// paper invokes.
	WorstOp int64
	// Rebuilds counts completed migrations.
	Rebuilds int64
}

// rebuildable is the contract the global-rebuilding wrapper needs from
// a bounded-capacity structure: its read primitive and token-threaded
// updates, plus access to its machine (for cost accounting) and its
// membership sub-dictionary (for the migration cursor). DynamicDict
// (Theorem 7) and OneProbeDict (Section 6) both satisfy it.
type rebuildable interface {
	read(t tokens, r *readReq) error
	InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error
	DeleteOp(op *pdm.Op, x pdm.Word) bool
	Len() int
	Capacity() int
	Snapshot(w io.Writer) error
	machine() *pdm.Machine
	membership() *BasicDict
}

func (dd *DynamicDict) machine() *pdm.Machine   { return dd.m }
func (dd *DynamicDict) membership() *BasicDict  { return dd.memb }
func (op *OneProbeDict) machine() *pdm.Machine  { return op.m }
func (op *OneProbeDict) membership() *BasicDict { return op.memb }

// Dict is the fully dynamic dictionary of Section 4's introduction:
// a bounded structure (Theorem 7's cascade by default, or the Section 6
// one-probe structure) made unbounded and deletion-friendly by
// worst-case global rebuilding. When the active structure reaches its
// capacity, a successor of twice the capacity is created on fresh disks,
// every subsequent operation migrates a constant number of keys, and
// both structures answer queries in parallel until the old one drains.
type Dict struct {
	// mu makes the wrapper safe for concurrent use: lookups (which
	// mutate nothing but the statsMu-guarded ledger) share a read lock,
	// while updates — which may swap the active/next structures mid-call
	// — are exclusive.
	mu         sync.RWMutex
	cfg        DictConfig
	generation uint64 // guarded by mu

	// hook is re-applied to every machine a rebuild creates, so traces
	// span generations.
	hook pdm.Hook // guarded by mu

	// injector, like hook, follows the dictionary across rebuild
	// generations.
	injector pdm.FaultInjector // guarded by mu

	active rebuildable // guarded by mu
	next   rebuildable // guarded by mu

	// Migration cursor over active's membership buckets (global bucket
	// index).
	curBucket int // guarded by mu

	// statsMu guards stats: lookups are otherwise read-only and may run
	// concurrently (under a reader lock), but every operation updates
	// the cost ledger.
	statsMu sync.Mutex
	stats   DictStats // guarded by statsMu

	// nextOp mints operation tokens. The Dict owns its own counter (not
	// the machines') so IDs survive rebuild generations and stay unique
	// across both live machines.
	nextOp atomic.Uint64
}

// NewDict creates an empty dictionary.
func NewDict(cfg DictConfig) (*Dict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := &Dict{cfg: cfg}
	active, err := d.newStructureLocked(cfg.InitialCapacity)
	if err != nil {
		return nil, err
	}
	d.active = active
	return d, nil
}

func (d *Dict) newStructureLocked(capacity int) (rebuildable, error) {
	d.generation++
	seed := d.cfg.Seed + d.generation*0x9e3779b97f4a7c15
	if d.cfg.OneProbe {
		levels := 3
		m := pdm.NewMachine(pdm.Config{D: (levels + 1) * d.cfg.Degree, B: d.cfg.BlockSize})
		m.SetHook(d.hook)
		m.SetFaultInjector(d.injector)
		return NewOneProbe(m, OneProbeConfig{
			Capacity: capacity,
			SatWords: d.cfg.SatWords,
			Levels:   levels,
			Universe: d.cfg.Universe,
			Seed:     seed,
		})
	}
	m := pdm.NewMachine(pdm.Config{D: 2 * d.cfg.Degree, B: d.cfg.BlockSize})
	m.SetHook(d.hook)
	m.SetFaultInjector(d.injector)
	return NewDynamic(m, DynamicConfig{
		Capacity: capacity,
		SatWords: d.cfg.SatWords,
		Epsilon:  d.cfg.Epsilon,
		Universe: d.cfg.Universe,
		Seed:     seed,
	})
}

// Len returns the number of keys stored across both structures.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.active.Len()
	if d.next != nil {
		n += d.next.Len()
	}
	return n
}

// Stats returns the accumulated operation costs.
func (d *Dict) Stats() DictStats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.stats
}

// Migrating reports whether a rebuild is in progress.
func (d *Dict) Migrating() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.next != nil
}

// SetHook attaches h to the machines of both live structures and to
// every machine created by future rebuilds. A nil h detaches.
func (d *Dict) SetHook(h pdm.Hook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = h
	d.active.machine().SetHook(h)
	if d.next != nil {
		d.next.machine().SetHook(h)
	}
}

// SetFaultInjector attaches fi to the machines of both live structures
// and to every machine created by future rebuilds. A nil fi detaches.
func (d *Dict) SetFaultInjector(fi pdm.FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = fi
	d.active.machine().SetFaultInjector(fi)
	if d.next != nil {
		d.next.machine().SetFaultInjector(fi)
	}
}

// Degraded reports whether either live structure's machine has observed
// a data-threatening fault since its degraded flag was last cleared.
func (d *Dict) Degraded() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.active.machine().Degraded() {
		return true
	}
	return d.next != nil && d.next.machine().Degraded()
}

// MintOp creates a fresh operation token for client, covering keys
// keys. Callers that want per-client attribution mint a token and pass
// it to the *Op entry points; the plain entry points mint their own
// (client 0) internally.
func (d *Dict) MintOp(client, keys int) *pdm.Op {
	return pdm.MakeOp(d.nextOp.Add(1), client, keys)
}

// measureOp runs fn under op's root span (tag) and charges the ledger
// exactly what the token was charged: max across the two machines of
// the parallel I/O steps of the batches fn issued, attributed to op
// through its per-machine lane counters. The attribution is exact under
// arbitrary concurrency — each caller's token counts only its own
// batches, never a neighbor's. The ledger gains n Ops (a batch counts
// one per key) and WorstOp tracks the per-key ceiling ⌈cost/n⌉ for
// every operation, batched or not.
func (d *Dict) measureOpLocked(op *pdm.Op, tag string, n int, fn func(op *pdm.Op) error) error {
	if op == nil {
		op = d.MintOp(0, n)
	}
	before := op.MaxMachineSteps()
	end := d.active.machine().OpSpan(op, tag)
	err := fn(op)
	end()
	d.book(n, op.MaxMachineSteps()-before)
	return err
}

// book adds one operation over n keys at the given cost to the ledger.
func (d *Dict) book(n int, cost int64) {
	d.statsMu.Lock()
	d.stats.Ops += int64(n)
	d.stats.ParallelIOs += cost
	if n > 0 {
		if per := (cost + int64(n) - 1) / int64(n); per > d.stats.WorstOp {
			d.stats.WorstOp = per
		}
	}
	d.statsMu.Unlock()
}

// read is Dict's read primitive (see read.go). The ledger books a token
// batch as len(keys) Ops at amortized cost (a nil token mints a client-0
// one) and a shared round as one Op per token at its own exact cost:
// the merged rounds it rode, in full.
func (d *Dict) read(t tokens, r *readReq) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !t.perKey {
		return d.measureOpLocked(t.op, obs.TagLookup, len(r.keys), func(op *pdm.Op) error {
			return d.readLocked(batchToken(op), r)
		})
	}
	befores := make([]int64, len(t.ops))
	for i, op := range t.ops {
		befores[i] = op.MaxMachineSteps()
	}
	end := t.openSpans(d.active.machine())
	err := d.readLocked(t, r)
	end()
	for i, op := range t.ops {
		d.book(1, op.MaxMachineSteps()-befores[i])
	}
	return err
}

// readLocked asks the successor first during a migration, then the
// draining structure for just its misses, attributed to their tokens. A
// miss's slot carries over: a fault-mode loss stands unless found later,
// and the final r.result() supersedes each sub-read's error.
func (d *Dict) readLocked(t tokens, r *readReq) error {
	if d.next == nil {
		d.active.read(t, r)
		return r.result()
	}
	d.next.read(t, r)
	var miss []int
	for ki, a := range r.out {
		if !a.ok {
			miss = append(miss, ki)
		}
	}
	switch len(miss) {
	case 0:
	case len(r.keys):
		d.active.read(t, r)
	default:
		sub := batchReq(make([]pdm.Word, len(miss)), r.try)
		for j, ki := range miss {
			sub.keys[j], sub.out[j] = r.keys[ki], r.out[ki]
		}
		d.active.read(t.subset(len(miss), func(j int) int { return miss[j] }), sub)
		for j, ki := range miss {
			r.out[ki] = sub.out[j]
		}
	}
	return r.result()
}

// Lookup returns a copy of x's satellite and whether x is present.
func (d *Dict) Lookup(x pdm.Word) (sat []pdm.Word, ok bool) {
	return d.LookupOp(nil, x)
}

// LookupOp is Lookup attributed to the operation token op: the spans
// and batches it issues carry the op's ID, and the op is charged the
// operation's exact parallel I/O cost. A nil op mints an anonymous
// (client 0) token.
func (d *Dict) LookupOp(op *pdm.Op, x pdm.Word) (sat []pdm.Word, ok bool) {
	var a [1]answer
	d.read(batchToken(op), &readReq{keys: []pdm.Word{x}, out: a[:]})
	return a[0].sat, a[0].ok
}

// Contains reports whether x is present.
func (d *Dict) Contains(x pdm.Word) bool {
	_, ok := d.Lookup(x)
	return ok
}

// LookupBatchOp resolves many keys as one batched operation under one
// token, op (nil mints one): each underlying structure answers with its
// own merged read rounds, and during a migration the draining structure
// is consulted only for the keys the successor misses. The ledger gains
// len(keys) Ops but the batch's (amortized) cost.
func (d *Dict) LookupBatchOp(op *pdm.Op, keys []pdm.Word) (sats [][]pdm.Word, oks []bool) {
	return readBatch(d.read, batchToken(op), keys)
}

// LookupSharedOp resolves keys[i] on behalf of ops[i] — the scheduler's
// group-commit round. Every ops[i] must be non-nil, distinct, and owned
// by a caller blocked while the dispatcher runs. The ledger gains one
// Op per participant.
func (d *Dict) LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	return readBatch(d.read, perKeyTokens(ops), keys)
}

// StepCount returns the active structure's machine step counter — the
// deterministic logical clock the scheduler's step-budget admission
// window runs on.
func (d *Dict) StepCount() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.machine().StepCount()
}

// Insert stores (x, sat), replacing any previous satellite for x.
func (d *Dict) Insert(x pdm.Word, sat []pdm.Word) error {
	return d.InsertOp(nil, x, sat)
}

// InsertOp is Insert attributed to the operation token op.
func (d *Dict) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.measureOpLocked(op, obs.TagInsert, 1, func(op *pdm.Op) error {
		if d.next == nil && d.active.Len() >= d.active.Capacity() {
			if err := d.startMigrationLocked(); err != nil {
				return err
			}
		}
		var err error
		if d.next != nil {
			err = d.next.InsertOp(op, x, sat)
			if err == nil {
				d.active.DeleteOp(op, x) // drop any stale copy
			}
		} else {
			err = d.active.InsertOp(op, x, sat)
			if err == ErrFull {
				// Expansion failure below capacity: rebuild immediately
				// with a new seed and land the insert in the successor.
				if merr := d.startMigrationLocked(); merr != nil {
					return merr
				}
				err = d.next.InsertOp(op, x, sat)
			}
		}
		if err != nil {
			return err
		}
		d.migrateStepLocked(op)
		return nil
	})
}

// Delete removes x and reports whether it was present.
func (d *Dict) Delete(x pdm.Word) (present bool) {
	return d.DeleteOp(nil, x)
}

// DeleteOp is Delete attributed to the operation token op.
func (d *Dict) DeleteOp(op *pdm.Op, x pdm.Word) (present bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.measureOpLocked(op, obs.TagDelete, 1, func(op *pdm.Op) error {
		if d.next != nil && d.next.DeleteOp(op, x) {
			present = true
		} else {
			present = d.active.DeleteOp(op, x)
		}
		d.migrateStepLocked(op)
		return nil
	})
	return present
}

// startMigration creates the successor structure of twice the current
// capacity (at least enough for the current content) and resets the
// cursor.
func (d *Dict) startMigrationLocked() error {
	capacity := 2 * d.active.Capacity()
	if capacity < d.active.Len()+1 {
		capacity = d.active.Len() + 1
	}
	next, err := d.newStructureLocked(capacity)
	if err != nil {
		return err
	}
	d.next = next
	d.curBucket = 0
	return nil
}

// migrateStep moves up to MigrateBatch keys from active to next, then
// finishes the migration once active is empty. The work per call is
// strictly bounded: at most MigrateBatch key moves AND at most
// 4·MigrateBatch bucket probes (empty buckets consume a probe but not a
// move), so the per-operation worst case stays constant even when the
// draining structure is nearly empty.
func (d *Dict) migrateStepLocked(op *pdm.Op) {
	if d.next == nil {
		return
	}
	// Migration I/O nests under the foreground operation's token: the
	// rebuild span rides op's private stack, so every batch below — on
	// either machine — is tagged <fg>.rebuild.* and charged to op. The
	// per-tag breakdown still separates rebuild traffic from the
	// foreground operation, and the charge lands on the operation that
	// performed the migration work, exactly as the amortization argument
	// charges it.
	defer d.active.machine().OpSpan(op, obs.TagRebuild)()
	memb := d.active.membership()
	moved, probes := 0, 0
	for moved < d.cfg.MigrateBatch && probes < 4*d.cfg.MigrateBatch && d.active.Len() > 0 {
		probes++
		if d.curBucket >= memb.Buckets() {
			break // cursor exhausted; remaining keys were deleted concurrently
		}
		addrs := memb.bucketAddrs(d.curBucket, nil)
		blocks := memb.reg.m.BatchReadOp(op, addrs)
		var key pdm.Word
		found := false
		for _, blk := range blocks {
			if recs := memb.codec.Decode(blk); len(recs) > 0 {
				key = recs[0].Key
				found = true
				break
			}
		}
		if !found {
			d.curBucket++
			continue
		}
		var a [1]answer
		d.active.read(batchToken(op), &readReq{keys: []pdm.Word{key}, out: a[:]})
		if sat, ok := a[0].sat, a[0].ok; ok {
			if err := d.next.InsertOp(op, key, sat); err != nil {
				// The successor refused (pathological); leave the key in
				// place and retry on a later step.
				return
			}
		}
		d.active.DeleteOp(op, key)
		moved++
	}
	if d.active.Len() == 0 {
		d.active = d.next
		d.next = nil
		d.statsMu.Lock()
		d.stats.Rebuilds++
		d.statsMu.Unlock()
	}
}
