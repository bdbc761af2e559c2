package tune

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"holistic/internal/mst"
)

// TestDefaultTable pins the static reference table: band boundaries, the
// per-band parameters and the signature's stability.
func TestDefaultTable(t *testing.T) {
	tab := Default()
	cases := []struct {
		n    int
		f, k int
	}{
		{0, 8, 8},
		{256, 8, 8},
		{257, 16, 16},
		{65536, 16, 16},
		{65537, 32, 32},
		{10_000_000, 32, 32},
	}
	for _, c := range cases {
		got := tab.Choose(c.n)
		if got.Fanout != c.f || got.SampleEvery != c.k {
			t.Fatalf("Choose(%d) = %+v, want f=%d k=%d", c.n, got, c.f, c.k)
		}
	}
	if Default().Sig() != tab.Sig() {
		t.Fatal("Default table signature not stable")
	}
	other, err := NewTable([]Row{{MaxN: 1 << 62, Fanout: 4, SampleEvery: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Sig() == tab.Sig() {
		t.Fatal("different tables must have different signatures")
	}
}

// TestTableRoundTrip checks Encode/Decode and Save/Load preserve rows,
// order and signature, and that version mismatches are rejected.
func TestTableRoundTrip(t *testing.T) {
	tab, err := NewTable([]Row{
		{MaxN: 1 << 62, Fanout: 32, SampleEvery: 32},
		{MaxN: 512, Fanout: 8, SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].MaxN != 512 {
		t.Fatal("NewTable must sort rows by MaxN")
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sig() != tab.Sig() {
		t.Fatalf("round trip changed signature: %s -> %s", tab.Sig(), back.Sig())
	}
	bad := bytes.NewBufferString(`{"version": 99, "rows": [{"max_n": 1, "fanout": 2, "sample_every": 1}]}`)
	if _, err := Decode(bad); err == nil {
		t.Fatal("version mismatch must be rejected")
	}
	// A table can never hand mst a fanout Build would reject.
	for _, f := range []int{1, mst.MaxFanout + 1} {
		var fe *mst.FanoutError
		if _, err := NewTable([]Row{{MaxN: 1 << 62, Fanout: f, SampleEvery: 4}}); !errors.As(err, &fe) || fe.Fanout != f {
			t.Fatalf("NewTable with fanout %d: error %v, want a FanoutError", f, err)
		}
	}
	wide := bytes.NewBufferString(`{"version": 1, "rows": [{"max_n": 1, "fanout": 257, "sample_every": 1}]}`)
	if _, err := Decode(wide); err == nil {
		t.Fatal("a decoded table with fanout 257 must be rejected")
	}

	path := filepath.Join(t.TempDir(), "tuning.json")
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sig() != tab.Sig() {
		t.Fatal("Save/Load changed signature")
	}
}

// TestTunerShapesTree checks the mst integration: a tuned build uses the
// table's f and k (observable through Stats), explicit options still win,
// and tuned trees answer identically to untuned ones.
func TestTunerShapesTree(t *testing.T) {
	tab, err := NewTable([]Row{{MaxN: 1 << 62, Fanout: 4, SampleEvery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	keys := make([]int64, 3000)
	for i := range keys {
		keys[i] = int64(rng.Intn(len(keys)))
	}
	tuned, err := mst.Build(keys, mst.Options{Tuning: tab})
	if err != nil {
		t.Fatal(err)
	}
	if got := tuned.Stats().Fanout; got != 4 {
		t.Fatalf("tuned fanout = %d, want 4", got)
	}
	explicit, err := mst.Build(keys, mst.Options{Tuning: tab, Fanout: 16, SampleEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := explicit.Stats().Fanout; got != 16 {
		t.Fatalf("explicit fanout = %d, want 16 (explicit options beat the tuner)", got)
	}
	plain, err := mst.Build(keys, mst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		lo := rng.Intn(len(keys))
		hi := lo + rng.Intn(len(keys)-lo)
		thr := int64(rng.Intn(len(keys) + 2))
		if a, b := tuned.CountBelow(lo, hi, thr), plain.CountBelow(lo, hi, thr); a != b {
			t.Fatalf("tuned tree answers differently: %d vs %d", a, b)
		}
	}
}

// TestCalibrateSmall smoke-tests the measurement pass on tiny sizes: it
// must return a valid, usable table covering all sizes.
func TestCalibrateSmall(t *testing.T) {
	tab, err := Calibrate(Config{
		Sizes:   []int{64, 512},
		Fanouts: []int{4, 8},
		Samples: []int{4},
		Rounds:  1,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	for _, n := range []int{1, 100, 10000} {
		c := tab.Choose(n)
		if c.Fanout < 2 || c.SampleEvery < 1 {
			t.Fatalf("Choose(%d) returned invalid parameters %+v", n, c)
		}
	}
	if tab.Rows[len(tab.Rows)-1].MaxN != 1<<62 {
		t.Fatal("last row must be a catch-all")
	}
}
