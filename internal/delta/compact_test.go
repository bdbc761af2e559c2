package delta_test

import (
	"math/rand"
	"testing"

	"holistic/internal/delta"
	"holistic/internal/lattice"
)

// TestDeltaRowsSchedule pins the overlay size the compaction threshold is
// measured against, epoch by epoch, over a scripted mix of every kind of
// change: each current image, each superseded image (a re-upsert, an upsert
// or a delete of an overlay row) and each base row that left the frozen
// order counts one. With CompactRows 8 the buffer asks to compact from
// epoch 7 on.
func TestDeltaRowsSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows [][]delta.Value
	for k := int64(0); k < 4; k++ {
		rows = append(rows, lattice.RandRow(rng, k))
	}
	buf, err := delta.NewBuffer(lattice.BuildTable(rows), "k", delta.Options{CompactRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		what      string
		op        delta.Op
		key       int64
		deltaRows int
	}{
		{"append k=10", delta.OpAppend, 10, 1},
		{"upsert base row k=1", delta.OpUpsert, 1, 3},
		{"re-upsert k=1", delta.OpUpsert, 1, 4},
		{"upsert appended k=10", delta.OpUpsert, 10, 5},
		{"delete appended k=10", delta.OpDelete, 10, 6},
		{"delete base row k=2", delta.OpDelete, 2, 7},
		{"delete overridden k=1", delta.OpDelete, 1, 8},
		{"upsert new k=20", delta.OpUpsert, 20, 9},
	} {
		if _, err := buf.Apply(-1, []delta.Mutation{{Op: step.op, Row: lattice.RandRow(rng, step.key)}}); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		epoch := i + 1
		if got := buf.Snapshot().DeltaRows(); got != step.deltaRows {
			t.Errorf("epoch %d (%s): DeltaRows = %d, want %d", epoch, step.what, got, step.deltaRows)
		}
		if got, want := buf.NeedsCompaction(), epoch >= 7; got != want {
			t.Errorf("epoch %d (%s): NeedsCompaction = %v, want %v", epoch, step.what, got, want)
		}
	}
}
