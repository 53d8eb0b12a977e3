package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"lopram/internal/workload"
)

// fnvOracle is the encoding Outcome.Check has always meant: hash/fnv's
// 64-bit FNV-1a over each value's 8 little-endian bytes.
func fnvOracle(vals []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestChecksumsMatchFNV pins the inline checksums bit for bit to the
// hash/fnv oracle, since replay signatures and perfbench's reference
// check compare Outcome.Check values across builds.
func TestChecksumsMatchFNV(t *testing.T) {
	r := workload.NewRNG(14)
	random := make([]int64, 10000)
	for i := range random {
		random[i] = int64(r.Uint64())
	}
	cases := map[string][]int64{
		"empty":     {},
		"one":       {42},
		"negatives": {-1, -2, -1 << 40, 7, -99},
		"extremes":  {math.MinInt64, math.MaxInt64, 0, math.MinInt64 + 1, math.MaxInt64 - 1},
		"random":    random,
	}
	for name, vals := range cases {
		ints := make([]int, len(vals))
		for i, v := range vals {
			ints[i] = int(v)
		}
		want := fnvOracle(vals)
		if got := checksum(vals); got != want {
			t.Errorf("%s: checksum([]int64) = %#x, want %#x", name, got, want)
		}
		if got := checksum(ints); got != want {
			t.Errorf("%s: checksum([]int) = %#x, want %#x", name, got, want)
		}
	}
}
