package mst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 33, 1000, 4097} {
		for _, opt := range []Options{
			{},
			{Fanout: 2, SampleEvery: 1},
			{Fanout: 4, SampleEvery: 16},
			{NoCascading: true},
		} {
			keys := randKeys(rng, n, int64(n)+1)
			orig, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			written, err := orig.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if written != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", written, buf.Len())
			}
			back, err := ReadTree(&buf)
			if err != nil {
				t.Fatalf("n=%d opt=%+v: %v", n, opt, err)
			}
			if back.Len() != n {
				t.Fatalf("n=%d: length changed to %d", n, back.Len())
			}
			// Queries must agree exactly with the original tree.
			for trial := 0; trial < 60; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				th := rng.Int63n(int64(n) + 2)
				if got, want := back.CountBelow(lo, hi, th), orig.CountBelow(lo, hi, th); got != want {
					t.Fatalf("n=%d opt=%+v count[%d,%d)<%d: %d != %d", n, opt, lo, hi, th, got, want)
				}
				if n > 0 {
					k := rng.Intn(n)
					gp, gok := back.SelectKth(0, int64(n)+1, k)
					wp, wok := orig.SelectKth(0, int64(n)+1, k)
					if gok != wok || gp != wp {
						t.Fatalf("n=%d select %d: (%d,%v) != (%d,%v)", n, k, gp, gok, wp, wok)
					}
				}
			}
			// The deserialized structure must satisfy all invariants too, and
			// carry the top-run positions Build derived.
			checkInvariants(t, back.mono)
			if !slices.Equal(back.mono.topPos, orig.mono.topPos) || (orig.mono.topPos == nil) != (back.mono.topPos == nil) {
				t.Fatalf("n=%d opt=%+v: loaded topPos %v, built %v", n, opt, back.mono.topPos, orig.mono.topPos)
			}
		}
	}
}

func TestSerializeCorruption(t *testing.T) {
	keys := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXX"), full[4:]...)
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncations at every prefix must error, not panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadTree(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Implausible header values.
	hdr := append([]byte{}, full...)
	hdr[8] = 0xFF // clobber n
	hdr[9] = 0xFF
	hdr[10] = 0xFF
	hdr[11] = 0xFF
	if _, err := ReadTree(bytes.NewReader(hdr)); err == nil {
		t.Fatal("implausible n accepted")
	}
	// A fanout past MaxFanout is rejected from the header alone (offset 16,
	// after magic, flags and n): a huge n with it must not size anything.
	for _, fanout := range []uint32{MaxFanout + 1, math.MaxInt32} {
		hdr = append([]byte{}, full[:28]...)
		binary.LittleEndian.PutUint64(hdr[8:], math.MaxInt32)
		binary.LittleEndian.PutUint32(hdr[16:], fanout)
		var fe *FanoutError
		if _, err := ReadTree(bytes.NewReader(hdr)); !errors.As(err, &fe) || fe.Fanout != int(fanout) {
			t.Fatalf("header fanout %d: error %v, want a FanoutError", fanout, err)
		}
	}
	// The reserved 64-bit payload flag (bit0 of the flags word at offset 4) is
	// rejected from the header alone too: on an otherwise valid record, and
	// on a bare header whose huge n must not size anything.
	wide := append([]byte{}, full...)
	wide[4] |= 1
	wideHuge := append([]byte{}, wide[:28]...)
	binary.LittleEndian.PutUint64(wideHuge[8:], math.MaxInt32)
	for _, rec := range [][]byte{wide, wideHuge} {
		var we *WideRecordError
		if _, err := ReadTree(bytes.NewReader(rec)); !errors.As(err, &we) || we.Flags&1 == 0 {
			t.Fatalf("64-bit flag on a %d-byte record: error %v, want a WideRecordError", len(rec), err)
		}
	}
	// The origin stripe of this two-level tree is the record's last n bytes
	// and its samples start after the header, both levels and the stride.
	// An origin naming a child the run does not have, an in-range origin
	// that is not the merge's, and a sample the origins contradict must all
	// be rejected: nothing that loads may answer through a wrong cascade.
	last := len(full) - 1
	firstSample := 28 + 2*len(keys)*4 + 8
	for _, c := range []struct {
		name string
		at   int
		to   byte
	}{
		{"origin beyond the fanout's range", last, 255},
		{"origin == child count", last, byte(len(keys))},
		{"in-range origin of another child", last, (full[last] + 1) % byte(len(keys))},
		{"sample contradicting the origins", firstSample, 1},
	} {
		bad := append([]byte{}, full...)
		bad[c.at] = c.to
		if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

func TestSerializedSizeMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	keys := randKeys(rng, 20_000, 20_000)
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	// The top-run positions are rebuilt on load, not written.
	if s.PositionBytes != 4*len(keys) {
		t.Fatalf("PositionBytes %d, want %d", s.PositionBytes, 4*len(keys))
	}
	// Payload + pointer bytes dominate; header and strides are tiny.
	if written := s.Bytes - s.PositionBytes; buf.Len() < written || buf.Len() > written+1024 {
		t.Fatalf("serialized %d bytes, stats say %d without positions", buf.Len(), written)
	}
	back, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bs := back.Stats(); bs != s {
		t.Fatalf("loaded tree stats %+v, built %+v", bs, s)
	}
}
