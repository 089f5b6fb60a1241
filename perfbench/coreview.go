package main

import (
	"pdmdict/internal/core"
)

// Core views drive the same op streams straight into internal/core, with
// no public wrapper and no hook: the "direct core call" baseline the
// ledger subtracts from the public call.

// coreBasic answers a Basic workload's lookups through a core.BasicDict
// over the same machine.
type coreBasic struct{ bb *basicBench }

func (cb coreBasic) op(c, i int) (class, int64, bool) {
	bb := cb.bb
	key, present := bb.lookupKey(c, i)
	op := bb.b.Machine().NewOp(c, 1)
	var sat []uint64
	var ok bool
	var err error
	if bb.try {
		sat, ok, err = bb.twin.LookupTryOp(op, key)
	} else {
		sat, ok = bb.twin.LookupOp(op, key)
	}
	good := err == nil && ok == present && (!ok || satEqual(sat, key))
	return classLookup, op.MaxMachineSteps(), good
}

func (cb coreBasic) modeledSteps() int64       { return cb.bb.modeledSteps() }
func (cb coreBasic) worstOpSteps() int64       { return 0 }
func (cb coreBasic) space() (float64, float64) { return cb.bb.space() }
func (cb coreBasic) close()                    {}

// coreChurn replays grow-churn's pass on a core.Dict built with the
// configuration pdmdict.New derives, noting which ops ran mid-rebuild.
type coreChurn struct {
	ops       []churnOp
	cfg       core.DictConfig
	d         *core.Dict
	doneIOs   int64
	migrating int64
}

func newCoreChurn(g *growChurn) *coreChurn {
	o := g.opts
	return &coreChurn{ops: g.ops, cfg: core.DictConfig{
		InitialCapacity: o.Capacity, SatWords: o.SatWords, Degree: o.Degree, BlockSize: o.BlockSize,
		Epsilon: o.Epsilon, Universe: o.Universe, Seed: o.Seed,
	}}
}

func (cc *coreChurn) beginPass() {
	if cc.d != nil {
		cc.doneIOs += cc.d.Stats().ParallelIOs
	}
	d, err := core.NewDict(cc.cfg)
	if err != nil {
		panic(err) // pdmdict.New accepted the same configuration
	}
	cc.d = d
}

func (cc *coreChurn) op(_, i int) (class, int64, bool) {
	o := &cc.ops[i%len(cc.ops)]
	if cc.d.Migrating() {
		cc.migrating++
	}
	op := cc.d.MintOp(0, 1)
	var good bool
	switch {
	case o.kind == classLookup:
		sat, ok := cc.d.LookupOp(op, o.key)
		good = ok == o.hit && (!ok || satEqual(sat, o.key))
	case o.del:
		good = cc.d.DeleteOp(op, o.key)
	default:
		good = cc.d.InsertOp(op, o.key, o.sat) == nil
	}
	return o.kind, op.MaxMachineSteps(), good
}

func (cc *coreChurn) modeledSteps() int64 {
	if cc.d == nil {
		return cc.doneIOs
	}
	return cc.doneIOs + cc.d.Stats().ParallelIOs
}
func (cc *coreChurn) worstOpSteps() int64 { return cc.d.Stats().WorstOp }

// space is not measured on the core view; the public pass reports it.
func (cc *coreChurn) space() (float64, float64) { return 0, 1 }
func (cc *coreChurn) close()                    {}
