package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pdmdict"
	"pdmdict/internal/core"
	"pdmdict/internal/pdm"
	"pdmdict/internal/sched"
)

// publicStack builds served-zipf from public APIs: NamedDict over
// Scheduled(Dict) with the fskv hook chain and an intent log.
func (z *zipfBench) publicStack(seed uint64, logf *os.File) (func(c int) *clientDict, error) {
	base, err := pdmdict.New(zipfOptions(seed))
	if err != nil {
		return nil, err
	}
	base.SetHook(obsChain(nil))
	sd, err := pdmdict.NewScheduled(base, pdmdict.SchedOptions{MaxBatch: 2, IntentLog: logf})
	if err != nil {
		return nil, err
	}
	z.base = publicDict{base}
	z.flush = sd.Flush
	z.rounds = sd.Snapshot
	z.closeFn = func() error {
		err := sd.Close()
		if cerr := logf.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return func(c int) *clientDict {
		return &clientDict{
			c:    c,
			mint: func(c int) *pdm.Op { return sd.MintOp(c, 1, "").Op },
			lookup: func(op *pdm.Op, key uint64) ([]uint64, bool, error) {
				sat, ok := sd.LookupCtx(pdmdict.OpCtx{Op: op}, key)
				return sat, ok, nil
			},
			insert: func(op *pdm.Op, key uint64, sat []uint64) error {
				return sd.InsertCtx(pdmdict.OpCtx{Op: op}, key, sat)
			},
			del: func(op *pdm.Op, key uint64) (bool, error) {
				return sd.DeleteCtx(pdmdict.OpCtx{Op: op}, key)
			},
			inner: sd,
		}
	}, nil
}

// directStack builds the same served-zipf configuration through
// internal/sched.New over core.Dict, skipping the pdmdict wrappers. When
// traced, the benchmark owns the Backend and the hook chain's members.
func (z *zipfBench) directStack(seed uint64, logf *os.File) (func(c int) *clientDict, error) {
	tr := z.tr
	opts := zipfOptions(seed)
	d, err := core.NewDict(core.DictConfig{InitialCapacity: opts.Capacity, SatWords: opts.SatWords, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	z.core = d
	var be sched.Backend = d
	var lw io.Writer = logf
	if tr == nil {
		d.SetHook(obsChain(nil))
	} else {
		tr.chain = obsChain(tr.wrapObs)
		d.SetHook(tr.hook)
		tr.migrating = d.Migrating
		lw = countingWriter{w: logf, n: &tr.logBytes}
		be = &timedBackend{d: d, tr: tr}
	}
	s := sched.New(be, sched.Config{MaxBatch: 2, Steps: d.StepCount, Log: sched.NewIntentLog(lw)})
	cd := coreDict{d}
	z.base = cd
	z.flush = s.Flush
	z.rounds = s.Snapshot
	z.closeFn = func() error {
		err := s.Close()
		if cerr := logf.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return func(c int) *clientDict {
		return &clientDict{
			c:      c,
			mint:   func(c int) *pdm.Op { return s.MintOp(c, 1) },
			lookup: s.LookupOp,
			insert: s.InsertOp,
			del:    s.DeleteOp,
			inner:  cd,
			tr:     tr,
		}
	}, nil
}

// publicDict and coreDict give the two Dict flavours one surface.
type publicDict struct{ *pdmdict.Dict }

func (p publicDict) save(w io.Writer) error { return p.Save(w) }

type coreDict struct{ d *core.Dict }

func (c coreDict) Lookup(key uint64) ([]uint64, bool) { return c.d.Lookup(key) }
func (c coreDict) Contains(key uint64) bool           { return c.d.Contains(key) }
func (c coreDict) Insert(key uint64, sat []uint64) error {
	return c.d.Insert(key, sat)
}
func (c coreDict) Delete(key uint64) bool { return c.d.Delete(key) }
func (c coreDict) Len() int               { return c.d.Len() }
func (c coreDict) IOStats() pdmdict.IOStats {
	return pdmdict.IOStats{ParallelIOs: c.d.Stats().ParallelIOs}
}
func (c coreDict) save(w io.Writer) error { return c.d.Snapshot(w) }

// ---------------------------------------------------------------------
// Space: a Dict keeps its machines private, so the benchmark reads them
// back from the dictionary's own snapshot stream — a framed Dict header
// followed by one framed (header, machine) pair per live structure.

type dictSpace struct {
	machines []*pdm.Machine
	levels   [][]int
}

func dictParts(d *pdmdict.Dict) (dictSpace, error) { return savedParts(publicDict{d}.save) }

func savedParts(save func(io.Writer) error) (dictSpace, error) {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return dictSpace{}, err
	}
	r := bytes.NewReader(buf.Bytes())
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return dictSpace{}, fmt.Errorf("reading Dict header length: %w", err)
	}
	if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
		return dictSpace{}, err
	}
	var out dictSpace
	for r.Len() > 0 {
		dd, m, err := core.LoadDynamic(r)
		if err != nil {
			return dictSpace{}, fmt.Errorf("reading structure %d: %w", len(out.machines), err)
		}
		out.machines = append(out.machines, m)
		out.levels = append(out.levels, dd.LevelCounts())
	}
	if len(out.machines) == 0 {
		return dictSpace{}, fmt.Errorf("snapshot holds no structure")
	}
	return out, nil
}

func (s dictSpace) storedBytes() float64 {
	var b float64
	for _, m := range s.machines {
		b += float64(m.TotalBlocks() * m.B() * 8)
	}
	return b
}

// cascadeFrac is the share of keys stored beyond level 0.
func (s dictSpace) cascadeFrac() float64 {
	var all, beyond int
	for _, lv := range s.levels {
		for i, n := range lv {
			all += n
			if i > 0 {
				beyond += n
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(beyond) / float64(all)
}
