package core

import (
	"bytes"
	"testing"

	"pdmdict/internal/fault"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// readDict is the token-threaded read surface every core structure
// exposes, over its read primitive.
type readDict interface {
	read(t tokens, r *readReq) error
	LookupOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool)
	LookupBatchOp(op *pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool)
	LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool)
}

// readFixture builds one seeded structure with hook (nil = none)
// attached after loading. Builds are deterministic: two calls give
// bit-identical structures, so their traces can be compared byte for
// byte. Every probe round stays at most 32 blocks, under the machine's
// pooled large-batch path, so allocation counts are exact.
type readFixture struct {
	name   string
	stored []pdm.Word // every inserted key, in insertion order
	build  func(t testing.TB, hook pdm.Hook) readDict
}

// fixtureKeys is the insertion order of a fixture holding n keys.
func fixtureKeys(n int) []pdm.Word {
	keys := make([]pdm.Word, n)
	for i := range keys {
		keys[i] = pdm.Word(i)*2654435761 + 1
	}
	return keys
}

func fixtureSat(x pdm.Word, words int) []pdm.Word {
	sat := make([]pdm.Word, words)
	for i := range sat {
		sat[i] = x ^ pdm.Word(i+1)
	}
	return sat
}

func mustInsert(t testing.TB, ins func(pdm.Word, []pdm.Word) error, keys []pdm.Word, words int) {
	t.Helper()
	for _, x := range keys {
		if err := ins(x, fixtureSat(x, words)); err != nil {
			t.Fatalf("insert %d: %v", x, err)
		}
	}
}

func readFixtures() []readFixture {
	basicKeys, dynKeys, opKeys, dictKeys := fixtureKeys(300), fixtureKeys(400), fixtureKeys(400), fixtureKeys(100)
	return []readFixture{
		{"basic", basicKeys, func(t testing.TB, hook pdm.Hook) readDict {
			m := pdm.NewMachine(pdm.Config{D: 8, B: 64})
			bd, err := NewBasic(m, BasicConfig{Capacity: 300, SatWords: 1, Seed: 71})
			if err != nil {
				t.Fatal(err)
			}
			mustInsert(t, bd.Insert, basicKeys, 1)
			m.SetHook(hook)
			return bd
		}},
		{"dynamic", dynKeys, func(t testing.TB, hook pdm.Hook) readDict {
			m := pdm.NewMachine(pdm.Config{D: 16, B: 64})
			dd, err := NewDynamic(m, DynamicConfig{Capacity: 400, SatWords: 2, Epsilon: 5, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			mustInsert(t, dd.Insert, dynKeys, 2)
			if c := dd.LevelCounts(); c[0] == len(dynKeys) {
				t.Fatalf("no key below level 0 (%v); the fixture must cover deep keys", c)
			}
			m.SetHook(hook)
			return dd
		}},
		{"oneprobe", opKeys, func(t testing.TB, hook pdm.Hook) readDict {
			m := pdm.NewMachine(pdm.Config{D: 16, B: 64})
			od, err := NewOneProbe(m, OneProbeConfig{Capacity: 400, SatWords: 2, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			mustInsert(t, od.Insert, opKeys, 2)
			if c := od.LevelCounts(); c[0] == len(opKeys) {
				t.Fatalf("no key below level 0 (%v); the fixture must cover deep keys", c)
			}
			m.SetHook(hook)
			return od
		}},
		{"dict", dictKeys, func(t testing.TB, hook pdm.Hook) readDict {
			return migratingDict(t, hook, dictKeys, false)
		}},
		{"dict-oneprobe", dictKeys, func(t testing.TB, hook pdm.Hook) readDict {
			return migratingDict(t, hook, dictKeys, true)
		}},
	}
}

// migratingDict loads keys into a Dict that outgrows its first
// structure, leaving it mid-migration: some keys answer from the
// filling successor, the rest only from the draining structure.
func migratingDict(t testing.TB, hook pdm.Hook, keys []pdm.Word, oneProbe bool) *Dict {
	cfg := DictConfig{InitialCapacity: 64, SatWords: 1, Degree: 8, Epsilon: 5, MigrateBatch: 1, Seed: 3}
	if oneProbe {
		cfg.Degree = 4
		cfg.OneProbe = true
	}
	d, err := NewDict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, d.Insert, keys, 1)
	if !d.Migrating() {
		t.Fatal("fixture Dict is not mid-migration")
	}
	d.SetHook(hook)
	return d
}

// missKey is a key no fixture stores.
func missKey(i int) pdm.Word { return pdm.Word(1)<<50 + pdm.Word(i)*2 }

// queryKeys interleaves a fixture's stored keys with misses.
func queryKeys(stored []pdm.Word) []pdm.Word {
	var keys []pdm.Word
	for i, x := range stored {
		keys = append(keys, x)
		if i%4 == 3 {
			keys = append(keys, missKey(i))
		}
	}
	return keys
}

func sameSat(a, b []pdm.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLookupBatchMatchesSingles pins every read entry point of every
// structure to one behaviour: single, batched, shared, and fault-mode
// lookups give the same answers, and a one-key batch is
// indistinguishable from a single lookup — same charge to the op, same
// trace bytes.
func TestLookupBatchMatchesSingles(t *testing.T) {
	for _, f := range readFixtures() {
		t.Run(f.name, func(t *testing.T) {
			keys := queryKeys(f.stored)
			d := f.build(t, nil)
			sats, oks := d.LookupBatchOp(nil, keys)
			ops := make([]*pdm.Op, len(keys))
			for i := range ops {
				ops[i] = pdm.MakeOp(uint64(i+1), i%3, 1)
			}
			ssats, soks := d.LookupSharedOp(ops, keys)
			// Fault mode on a healthy machine answers exactly as plain reads.
			tr := batchReq(keys, true)
			if err := d.read(batchToken(nil), tr); err != nil {
				t.Fatalf("fault-mode batch on a healthy machine: %v", err)
			}
			for i, x := range keys {
				sat, ok := d.LookupOp(nil, x)
				if want := i%5 != 4; ok != want {
					t.Fatalf("key %d: single ok=%v, want %v", x, ok, want)
				}
				if ok && !sameSat(sat, fixtureSat(x, len(sat))) {
					t.Fatalf("key %d: single sat=%v", x, sat)
				}
				if oks[i] != ok || !sameSat(sats[i], sat) {
					t.Fatalf("key %d: batch (%v, %v) vs single (%v, %v)", x, sats[i], oks[i], sat, ok)
				}
				if soks[i] != ok || !sameSat(ssats[i], sat) {
					t.Fatalf("key %d: shared (%v, %v) vs single (%v, %v)", x, ssats[i], soks[i], sat, ok)
				}
				if a := tr.out[i]; a.ok != ok || !sameSat(a.sat, sat) || a.lost != nil {
					t.Fatalf("key %d: fault mode %+v vs single (%v, %v)", x, a, sat, ok)
				}
			}

			// One key through LookupOp and through LookupBatchOp, each on
			// its own identical build with equal token IDs.
			var single, batch bytes.Buffer
			sw, bw := obs.NewJSONLWriter(&single), obs.NewJSONLWriter(&batch)
			ds, db := f.build(t, sw), f.build(t, bw)
			for i, x := range keys {
				so, bo := pdm.MakeOp(uint64(i+1), 1, 1), pdm.MakeOp(uint64(i+1), 1, 1)
				ds.LookupOp(so, x)
				db.LookupBatchOp(bo, []pdm.Word{x})
				if so.Steps() != bo.Steps() {
					t.Fatalf("key %d: LookupOp charged %d steps, one-key LookupBatchOp %d", x, so.Steps(), bo.Steps())
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(single.Bytes(), batch.Bytes()) {
				t.Fatalf("one-key batches trace differently from single lookups (%d vs %d bytes)", batch.Len(), single.Len())
			}
		})
	}
}

// TestLookupAllocationCeilings pins the host cost of the read path:
// core LookupOp on a hit and on a miss per structure, and a two-op
// shared round through Dict (the scheduler's shape). The counts are
// deterministic, so each is an exact ceiling.
func TestLookupAllocationCeilings(t *testing.T) {
	ceilings := map[string][3]float64{ // fixture → {hit, miss, two-op shared round}
		"basic":         {25, 22},
		"dynamic":       {40, 30},
		"oneprobe":      {36, 26},
		"dict":          {39, 57, 121},
		"dict-oneprobe": {35, 51, 108},
	}
	for _, f := range readFixtures() {
		d := f.build(t, nil)
		for i, x := range []pdm.Word{f.stored[0], missKey(0)} {
			got := testing.AllocsPerRun(200, func() { d.LookupOp(nil, x) })
			t.Logf("%s LookupOp hit=%v: %.1f allocs", f.name, i == 0, got)
			if ceil := ceilings[f.name][i]; got > ceil {
				t.Errorf("%s LookupOp (hit=%v) allocates %.1f objects, ceiling %.0f", f.name, i == 0, got, ceil)
			}
		}
		if dict, ok := d.(*Dict); ok {
			ops := []*pdm.Op{dict.MintOp(1, 1), dict.MintOp(2, 1)}
			keys := []pdm.Word{f.stored[0], missKey(0)}
			got := testing.AllocsPerRun(200, func() { dict.LookupSharedOp(ops, keys) })
			t.Logf("%s two-op LookupSharedOp: %.1f allocs", f.name, got)
			if ceil := ceilings[f.name][2]; got > ceil {
				t.Errorf("%s two-op LookupSharedOp allocates %.1f objects, ceiling %.0f", f.name, got, ceil)
			}
		}
	}
}

// An absent key is settled by its membership buckets alone: losing a
// disk of a retrieval level must not make OneProbe's fault-aware lookup
// report it unavailable. A present key resident on that level still
// must, because level fields are not replicated.
func TestOneProbeLookupTryAbsentUnderLevelFailure(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 16, B: 64})
	od, err := NewOneProbe(m, OneProbeConfig{Capacity: 500, SatWords: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if od.d != 4 {
		t.Fatalf("d = %d, want 4", od.d)
	}
	stored := fixtureKeys(500)
	mustInsert(t, od.Insert, stored, 1)
	plan := fault.NewPlan(1)
	plan.FailDisk(4) // first disk of level 0's group; membership disks 0-3 stay healthy
	m.SetFaultInjector(plan)

	for i := 0; i < 200; i++ {
		x := missKey(i)
		if sat, ok, err := od.LookupTry(x); ok || sat != nil || err != nil {
			t.Fatalf("absent key %d: LookupTry = (%v, %v, %v), want a clean miss", x, sat, ok, err)
		}
	}
	unavailable, answered := 0, 0
	for _, x := range stored {
		sat, ok, err := od.LookupTry(x)
		switch {
		case err != nil:
			if ok || sat != nil {
				t.Fatalf("key %d: error %v with answer (%v, %v)", x, err, sat, ok)
			}
			unavailable++
		case !ok || !sameSat(sat, fixtureSat(x, 1)):
			t.Fatalf("present key %d: LookupTry = (%v, %v), want its satellite", x, sat, ok)
		default:
			answered++
		}
	}
	if unavailable == 0 || answered == 0 {
		t.Fatalf("unavailable=%d answered=%d; want level-0 keys unavailable and the rest answered", unavailable, answered)
	}
}
