package mst

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestSpillEquivalence drives every query primitive of a spill-chunked tree
// against a monolithic tree over the same keys: answers must be identical
// for arbitrary position ranges, thresholds, multi-range selects and batch
// kernels, including the full-span queries served by the lazily merged top
// run, under both leaf seam settings.
func TestSpillEquivalence(t *testing.T) {
	leafSeam(t, testSpillEquivalence)
}

func testSpillEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 63, 64, 65, 257, 1000} {
		for _, spill := range []int{1, 7, 64, 250} {
			for _, domainTop := range []bool{false, true} {
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = int64(rng.Intn(n + 1))
				}
				if domainTop { // keys just below math.MaxInt32, range bounds past it
					for i := range keys {
						keys[i] += math.MaxInt32 - int64(n) - 1
					}
				}
				mono, err := Build(keys, Options{})
				if err != nil {
					t.Fatal(err)
				}
				chunked, err := Build(keys, Options{SpillRows: spill})
				if err != nil {
					t.Fatal(err)
				}
				if n > spill && chunked.ChunkCount() == 0 {
					t.Fatalf("n=%d spill=%d: expected a chunk forest", n, spill)
				}
				checkSpillPair(t, rng, mono, chunked, keys)
			}
		}
	}
}

func checkSpillPair(t *testing.T, rng *rand.Rand, mono, chunked *Tree, keys []int64) {
	t.Helper()
	n := len(keys)
	if mono.Len() != chunked.Len() {
		t.Fatalf("Len: %d vs %d", mono.Len(), chunked.Len())
	}
	for i := 0; i < n; i++ {
		if mono.Value(i) != chunked.Value(i) {
			t.Fatalf("Value(%d): %d vs %d", i, mono.Value(i), chunked.Value(i))
		}
	}
	for q := 0; q < 200; q++ {
		lo := rng.Intn(n + 1)
		hi := rng.Intn(n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		thr := keys[rng.Intn(n)] + int64(rng.Intn(3)-1)
		if got, want := chunked.CountBelow(lo, hi, thr), mono.CountBelow(lo, hi, thr); got != want {
			t.Fatalf("CountBelow(%d,%d,%d): %d vs %d", lo, hi, thr, got, want)
		}
		vLo := keys[rng.Intn(n)]
		vHi := vLo + int64(rng.Intn(5))
		if got, want := chunked.CountRange(lo, hi, vLo, vHi), mono.CountRange(lo, hi, vLo, vHi); got != want {
			t.Fatalf("CountRange: %d vs %d", got, want)
		}
		k := rng.Intn(n + 1)
		gp, gok := chunked.SelectKth(vLo, vHi, k)
		wp, wok := mono.SelectKth(vLo, vHi, k)
		if gok != wok || (gok && gp != wp) {
			t.Fatalf("SelectKth(%d,%d,%d): (%d,%v) vs (%d,%v)", vLo, vHi, k, gp, gok, wp, wok)
		}
		ranges := [][2]int64{{vLo, vHi}, {vHi + 1, vHi + 3}}
		gp, gok = chunked.SelectKthRanges(ranges, k)
		wp, wok = mono.SelectKthRanges(ranges, k)
		if gok != wok || (gok && gp != wp) {
			t.Fatalf("SelectKthRanges: (%d,%v) vs (%d,%v)", gp, gok, wp, wok)
		}
		if got, want := chunked.CountRanges(lo, hi, ranges), mono.CountRanges(lo, hi, ranges); got != want {
			t.Fatalf("CountRanges: %d vs %d", got, want)
		}
	}
	// Full-span queries exercise the lazily merged top run.
	for q := 0; q < 50; q++ {
		thr := keys[rng.Intn(n)] + int64(rng.Intn(3)-1)
		if got, want := chunked.CountBelow(0, n, thr), mono.CountBelow(0, n, thr); got != want {
			t.Fatalf("full-span CountBelow(%d): %d vs %d", thr, got, want)
		}
	}
	// Batch kernels must agree with the scalar answers on the forest.
	m := 64
	lo32 := make([]int32, m)
	hi32 := make([]int32, m)
	thr := make([]int64, m)
	out := make([]int32, m)
	for q := 0; q < m; q++ {
		a, b := rng.Intn(n+1), rng.Intn(n+1)
		if a > b {
			a, b = b, a
		}
		lo32[q], hi32[q] = int32(a), int32(b)
		thr[q] = keys[rng.Intn(n)]
	}
	chunked.CountBelowBatch(lo32, hi32, thr, out)
	for q := 0; q < m; q++ {
		if want := mono.CountBelow(int(lo32[q]), int(hi32[q]), thr[q]); int(out[q]) != want {
			t.Fatalf("CountBelowBatch[%d]: %d vs %d", q, out[q], want)
		}
	}
	off := make([]int32, m+1)
	var vlo, vhi []int64
	ks := make([]int32, m)
	for q := 0; q < m; q++ {
		off[q] = int32(len(vlo))
		nr := 1 + rng.Intn(2)
		base := keys[rng.Intn(n)]
		for j := 0; j < nr; j++ {
			vlo = append(vlo, base)
			vhi = append(vhi, base+int64(rng.Intn(4)))
			base = vhi[len(vhi)-1] + 2
		}
		ks[q] = int32(rng.Intn(n + 1))
	}
	off[m] = int32(len(vlo))
	sel := make([]int32, m)
	chunked.SelectKthRangesBatch(off, vlo, vhi, ks, sel)
	var scratch [][2]int64
	for q := 0; q < m; q++ {
		scratch = scratch[:0]
		for j := off[q]; j < off[q+1]; j++ {
			scratch = append(scratch, [2]int64{vlo[j], vhi[j]})
		}
		wp, wok := mono.SelectKthRanges(scratch, int(ks[q]))
		if !wok {
			wp = -1
		}
		if int(sel[q]) != wp {
			t.Fatalf("SelectKthRangesBatch[%d]: %d vs %d", q, sel[q], wp)
		}
	}
}

// TestSpillSerializeRoundTrip checks WriteTo/ReadTree on a chunk forest.
func TestSpillSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]int64, 500)
	for i := range keys {
		keys[i] = int64(rng.Intn(300))
	}
	orig, err := Build(keys, Options{SpillRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChunkCount() != orig.ChunkCount() || got.Len() != orig.Len() {
		t.Fatalf("shape: chunks %d vs %d, len %d vs %d", got.ChunkCount(), orig.ChunkCount(), got.Len(), orig.Len())
	}
	for q := 0; q < 200; q++ {
		lo := rng.Intn(len(keys) + 1)
		hi := rng.Intn(len(keys) + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		thr := int64(rng.Intn(300))
		if a, b := got.CountBelow(lo, hi, thr), orig.CountBelow(lo, hi, thr); a != b {
			t.Fatalf("CountBelow after round trip: %d vs %d", a, b)
		}
	}
	// Truncated input must fail cleanly.
	full := buf.Bytes()
	var buf2 bytes.Buffer
	if _, err := orig.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTree(bytes.NewReader(buf2.Bytes()[:len(full)/2])); err == nil {
		t.Fatal("truncated chunked tree deserialised without error")
	}
}

// TestSpillOptionValidation pins the Options.SpillRows contract.
func TestSpillOptionValidation(t *testing.T) {
	if _, err := Build([]int64{1, 2}, Options{SpillRows: -1}); err == nil {
		t.Fatal("negative SpillRows accepted")
	}
	// SpillRows >= n builds a monolithic tree.
	tr, err := Build([]int64{3, 1, 2}, Options{SpillRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ChunkCount() != 0 {
		t.Fatalf("SpillRows == n built a forest of %d chunks", tr.ChunkCount())
	}
}
