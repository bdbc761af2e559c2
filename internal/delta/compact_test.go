package delta_test

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestCompactUnderConcurrentWrites compacts over and over while a writer
// applies batches back to back, as the compactor does under a steady writer:
// every published snapshot stays internally consistent, compactions keep
// swapping, and the table at the end matches the writer's model with the
// key index addressing rows from every generation.
func TestCompactUnderConcurrentWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var model [][]delta.Value
	for k := int64(0); k < 64; k++ {
		model = append(model, lattice.RandRow(rng, k))
	}
	buf, err := delta.NewBuffer(lattice.BuildTable(model), "k", delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 400
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		for n := 0; n < batches; n++ {
			key := int64(rng.Intn(96))
			row := lattice.RandRow(rng, key)
			i := slices.IndexFunc(model, func(r []delta.Value) bool { return r[0].Int == key })
			op := delta.OpUpsert
			switch {
			case i >= 0 && n%3 == 0:
				op = delta.OpDelete
			case i < 0 && n%2 == 0:
				op = delta.OpAppend
			}
			if _, err := buf.Apply(-1, []delta.Mutation{{Op: op, Row: row}}); err != nil {
				writerErr <- fmt.Errorf("batch %d: %v k=%d: %w", n, op, key, err)
				return
			}
			switch {
			case op == delta.OpDelete:
				model = slices.Delete(model, i, i+1)
			case i >= 0:
				model[i] = row
			default:
				model = append(model, row)
			}
		}
	}()
	swaps := 0
	for running := true; running; {
		select {
		case err, ok := <-writerErr:
			if ok {
				t.Fatal(err)
			}
			running = false
		default:
		}
		swapped, _, err := buf.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if swapped {
			swaps++
		}
		if err := buf.Snapshot().Verify(); err != nil {
			t.Fatal(err)
		}
	}
	snap := buf.Snapshot()
	if snap.Epoch() != batches || !snap.Clean() || snap.Gen() != int64(swaps) || swaps == 0 {
		t.Fatalf("epoch %d, clean %v, generation %d after %d swaps; want epoch %d, a clean overlay and at least one swap",
			snap.Epoch(), snap.Clean(), snap.Gen(), swaps, batches)
	}
	requireTableMatchesModel(t, snap, model)
}
