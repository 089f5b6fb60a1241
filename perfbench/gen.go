package main

import "math/rand"

// Inputs are a pure function of the workload seed: keys come from a
// seeded bijection on the 63-bit key universe, so distinct indices give
// distinct keys without a membership map, and satellites are a hash of
// their key, so the model needs no per-key storage.

const keyMask = 1<<63 - 1

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// keyspace maps indices to keys through a seeded permutation of
// [0, 2^63): every step (odd multiply, add, xorshift, all mod 2^63) is a
// bijection.
type keyspace struct{ add uint64 }

func newKeyspace(seed uint64) keyspace { return keyspace{add: mix64(seed) & keyMask} }

func (ks keyspace) key(i uint64) uint64 {
	x := (i*0x9e3779b97f4a7c15 + ks.add) & keyMask
	x ^= x >> 29
	x = (x * 0xbf58476d1ce4e5b9) & keyMask
	x ^= x >> 32
	x = (x * 0x94d049bb133111eb) & keyMask
	return x ^ x>>31
}

// satOf is the model's satellite for key: n words derived from the key.
func satOf(key uint64, n int) []uint64 {
	s := make([]uint64, n)
	for j := range s {
		s[j] = mix64(key + uint64(j) + 1)
	}
	return s
}

func satEqual(got []uint64, key uint64) bool {
	for j, w := range got {
		if w != mix64(key+uint64(j)+1) {
			return false
		}
	}
	return true
}

// rng returns a deterministic generator for one (seed, stream) pair.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed*0x2545f4914f6cdd1d+stream) & keyMask)))
}
