package core

// The read path. Each structure has one read primitive,
// read(t tokens, r *readReq) error, and every exported lookup entry
// point is sugar over it. The primitive owns the read lock, the lookup
// spans, the de-duplicated probe set over the keys, the machine
// round(s), and the decode. The caller states both of its modes:
//
//   - attribution (tokens): one token for the whole batch — one span,
//     BatchReadOp rounds — or one token per key — a span each,
//     BatchReadShared rounds charging every rider in full. It is never
//     inferred from len(ops): a one-op shared round traces ops:[id] where
//     a batch traces op:id, and Dict books a batch as len(keys) ops at
//     amortized cost but a shared round as one entry per op;
//   - fault mode (readReq.try): plain reads, or tryReadPolicy under the
//     structure's retry policy, where unreadable blocks come back nil and
//     a key whose answer rests on one is inconclusive, never absent.
//
// The primitive's error is r.result(), recomputable from the slots and
// always nil in plain mode, so plain-mode callers drop it. A single key
// skips the de-duplication map and reads into the caller's (stack)
// result slot, so it allocates no more than its reads and decode.

import (
	"fmt"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// tokens is a read's attribution: who is charged for its rounds.
type tokens struct {
	perKey bool      // ops[i] is keys[i]'s own token
	op     *pdm.Op   // otherwise the batch's one token (nil = unattributed)
	ops    []*pdm.Op // per-key tokens; distinct, non-nil, owned by blocked callers
}

func batchToken(op *pdm.Op) tokens      { return tokens{op: op} }
func perKeyTokens(ops []*pdm.Op) tokens { return tokens{perKey: true, ops: ops} }

// subset is the attribution of a sub-batch whose j-th key is the
// key(j)-th of the original: the same batch token, or just those keys'
// own tokens.
func (t tokens) subset(n int, key func(j int) int) tokens {
	if !t.perKey {
		return t
	}
	ops := make([]*pdm.Op, n)
	for j := range ops {
		ops[j] = t.ops[key(j)]
	}
	return perKeyTokens(ops)
}

// openSpans opens the lookup spans on m — one under the batch token, or
// one root span per key token — and returns their closer.
func (t tokens) openSpans(m *pdm.Machine) (end func()) {
	if !t.perKey {
		return m.OpSpan(t.op, obs.TagLookup)
	}
	ends := make([]func(), len(t.ops))
	for i, op := range t.ops {
		ends[i] = m.OpSpan(op, obs.TagLookup)
	}
	return func() {
		for i := len(ends) - 1; i >= 0; i-- {
			ends[i]()
		}
	}
}

// answer is one key's result slot.
type answer struct {
	sat []pdm.Word
	ok  bool
	// lost, in fault mode, is the failed round's error when a block the
	// answer depends on was unreadable (nil = settled).
	lost error
}

// readReq is one call of a read primitive: the keys, the fault mode,
// and the caller's result slots, positionally aligned with keys.
type readReq struct {
	keys []pdm.Word
	try  bool
	out  []answer
}

// batchReq is a request for keys with fresh result slots.
func batchReq(keys []pdm.Word, try bool) *readReq {
	return &readReq{keys: keys, try: try, out: make([]answer, len(keys))}
}

// readBatch runs keys through read, attributed per t, and returns the
// positional pair the batch entry points return.
func readBatch(read func(tokens, *readReq) error, t tokens, keys []pdm.Word) ([][]pdm.Word, []bool) {
	r := batchReq(keys, false)
	read(t, r)
	return r.split()
}

// split unzips the answers into the positional pair the batch entry
// points return.
func (r *readReq) split() ([][]pdm.Word, []bool) {
	sats, oks := make([][]pdm.Word, len(r.out)), make([]bool, len(r.out))
	for i, a := range r.out {
		sats[i], oks[i] = a.sat, a.ok
	}
	return sats, oks
}

// round issues one read round for addrs, attributed per t, under the
// fault mode; pol is the structure's retry policy. In fault mode the
// error lists the blocks that stayed unreadable (nil in the result).
func (r *readReq) round(t tokens, m *pdm.Machine, pol pdm.RetryPolicy, addrs []pdm.Addr) ([][]pdm.Word, error) {
	switch {
	case !r.try && t.perKey:
		return m.BatchReadShared(t.ops, addrs), nil
	case !r.try:
		return m.BatchReadOp(t.op, addrs), nil
	case t.perKey:
		// Per-key tokens come only from the scheduler, which carries no
		// degraded reads; retry backoff has no shared-charge form.
		panic("core: fault-aware reads take a batch token")
	}
	return tryReadPolicy(m, t.op, pol, addrs)
}

// unreadable reports whether, in fault mode, one of the blocks key ki's
// answer depends on could not be read in the round that failed with
// cause; the key is then inconclusive.
func (r *readReq) unreadable(ki int, blocks [][]pdm.Word, cause error) bool {
	if !r.try {
		return false
	}
	for _, blk := range blocks {
		if blk == nil {
			r.out[ki].lost = cause
			return true
		}
	}
	return false
}

// resident decodes key ki's membership record — the level holding its
// chain and the chain's head stripe — from its membership blocks, read
// in a round that returned cause. ok is false for an absent key, or for
// one fault mode cannot settle.
func (r *readReq) resident(memb *BasicDict, ki int, blocks [][]pdm.Word, cause error) (level, head int, ok bool) {
	sat, ok := memb.lookupInBlocks(r.keys[ki], blocks)
	if !ok {
		r.unreadable(ki, blocks, cause)
		return 0, 0, false
	}
	return int(sat[0] >> 8), int(sat[0] & 0xFF), true
}

// result reports the keys fault mode left unsettled: not found, with an
// unreadable block in the way.
func (r *readReq) result() error {
	n, first := 0, -1
	for i, a := range r.out {
		if a.lost != nil && !a.ok {
			if n++; first < 0 {
				first = i
			}
		}
	}
	switch {
	case n == 0:
		return nil
	case len(r.keys) == 1:
		return fmt.Errorf("core: degraded lookup for key %d inconclusive: %w", r.keys[0], r.out[0].lost)
	}
	return fmt.Errorf("core: degraded batch lookup: %d of %d keys inconclusive: %w", n, len(r.keys), r.out[first].lost)
}

// probeSet is the de-duplicated union of several keys' probe addresses.
type probeSet struct {
	addrs []pdm.Addr
	width int          // blocks per key
	idx   []int32      // key i's j-th block is addrs[idx[i*width+j]]; nil for one key, whose probe is addrs itself
	buf   [][]pdm.Word // scratch for blocks when idx is set
}

// gatherProbes builds the probe set of n keys, key i appending its width
// addresses to dst via probe(i, dst). Order is first appearance, so the
// round — and the trace — is a pure function of the keys.
func gatherProbes(n, width int, probe func(i int, dst []pdm.Addr) []pdm.Addr) probeSet {
	if n == 1 {
		return probeSet{addrs: probe(0, make([]pdm.Addr, 0, width)), width: width}
	}
	ps := probeSet{width: width, idx: make([]int32, n*width), buf: make([][]pdm.Word, width)}
	uniq := make(map[pdm.Addr]int32, n*width)
	scratch := make([]pdm.Addr, 0, width)
	for i := 0; i < n; i++ {
		scratch = probe(i, scratch[:0])
		for j, a := range scratch {
			k, seen := uniq[a]
			if !seen {
				k = int32(len(ps.addrs))
				uniq[a] = k
				ps.addrs = append(ps.addrs, a)
			}
			ps.idx[i*width+j] = k
		}
	}
	return ps
}

// blocks returns key i's probe blocks, in probe order, from the round's
// result flat. The slice is reused by the next call.
func (ps *probeSet) blocks(flat [][]pdm.Word, i int) [][]pdm.Word {
	if ps.idx == nil {
		return flat
	}
	for j := range ps.buf {
		ps.buf[j] = flat[ps.idx[i*ps.width+j]]
	}
	return ps.buf
}
