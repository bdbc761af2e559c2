package delta_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"holistic/internal/core"
	"holistic/internal/delta"
	"holistic/internal/lattice"
)

// FuzzDeltaApply drives a Buffer with a byte-derived stream of valid
// append/upsert/delete batches (stale-epoch attempts and compactions
// interleaved) against a naive ordered-row model, requiring the buffer's
// materialized table to match the model after every batch and the
// snapshot's internal invariants to hold. The model implements the
// documented position semantics directly: upsert replaces in place, delete
// shifts later rows up, appends (and upserts of unknown keys) land at the
// tail.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 4, 4, 4})
	f.Add([]byte{9, 2, 2, 2, 5, 5, 5, 6, 7, 2, 0, 1})
	f.Add([]byte{5, 6, 6, 6, 6, 6, 2, 9, 9, 9, 1, 3, 5, 7, 2, 4, 6, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		mkRow := func(key int64) []delta.Value {
			row := make([]delta.Value, 7)
			row[0] = delta.Int64Value(key)
			row[1] = delta.Int64Value(int64(next() % 3)) // g
			row[2] = delta.Int64Value(int64(next() % 9)) // d
			if b := next(); b%7 == 0 {
				row[3] = delta.NullValue(core.Int64)
			} else {
				row[3] = delta.Int64Value(int64(b % 6)) // v
			}
			row[4] = delta.Float64Value(float64(next()%8) / 2) // fv
			row[5] = delta.StringValue(string(rune('a' + next()%4)))
			row[6] = delta.BoolValue(next()%2 == 0)
			return row
		}
		var model [][]delta.Value
		nBase := int(next()) % 10
		for i := 0; i < nBase; i++ {
			model = append(model, mkRow(int64(i)))
		}
		nextKey := int64(nBase)
		buf, err := delta.NewBuffer(lattice.BuildTable(model), "k", delta.Options{CompactRows: 8})
		if err != nil {
			t.Fatalf("NewBuffer: %v", err)
		}

		for pos < len(data) {
			var muts []delta.Mutation
			var pending [][]delta.Value // model rows after this batch, staged
			pending = append(pending, model...)
			nMut := 1 + int(next())%2
			for m := 0; m < nMut; m++ {
				switch op := next() % 8; {
				case op <= 1: // append a fresh key
					row := mkRow(nextKey)
					nextKey++
					muts = append(muts, delta.Mutation{Op: delta.OpAppend, Row: row})
					pending = append(pending, row)
				case op <= 3 && len(pending) > 0: // upsert existing, in place
					i := int(next()) % len(pending)
					row := mkRow(pending[i][0].Int)
					muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: row})
					pending[i] = row
				case op == 4: // upsert a fresh key: appends
					row := mkRow(nextKey)
					nextKey++
					muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: row})
					pending = append(pending, row)
				case op == 5 && len(pending) > 0: // delete: later rows shift up
					i := int(next()) % len(pending)
					row := mkRow(pending[i][0].Int)
					muts = append(muts, delta.Mutation{Op: delta.OpDelete, Row: row})
					pending = append(pending[:i], pending[i+1:]...)
				case op == 6: // stale-epoch attempt: must 409 and change nothing
					if len(model) == 0 {
						continue
					}
					stale := []delta.Mutation{{Op: delta.OpUpsert, Row: mkRow(model[0][0].Int)}}
					_, err := buf.Apply(buf.Epoch()+1, stale)
					var conflict *delta.EpochConflictError
					if !errors.As(err, &conflict) {
						t.Fatalf("stale-epoch Apply returned %v, want EpochConflictError", err)
					}
					continue
				default: // compact
					if _, _, err := buf.Compact(); err != nil {
						t.Fatalf("Compact: %v", err)
					}
					continue
				}
			}
			if len(muts) == 0 {
				continue
			}
			if _, err := buf.Apply(buf.Epoch(), muts); err != nil {
				t.Fatalf("Apply(%v): %v", muts, err)
			}
			model = pending
			snap := buf.Snapshot()
			if err := snap.Verify(); err != nil {
				t.Fatal(err)
			}
			requireTableMatchesModel(t, snap, model)
		}
		// Final cross-check after folding everything into a new generation.
		if _, _, err := buf.Compact(); err != nil {
			t.Fatalf("final Compact: %v", err)
		}
		requireTableMatchesModel(t, buf.Snapshot(), model)
	})
}

func requireTableMatchesModel(t *testing.T, snap *delta.Snapshot, model [][]delta.Value) {
	t.Helper()
	tab, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != len(model) {
		t.Fatalf("epoch %d: table has %d rows, model has %d", snap.Epoch(), tab.Rows(), len(model))
	}
	if snap.Rows() != len(model) {
		t.Fatalf("epoch %d: snapshot accounts for %d rows, model has %d", snap.Epoch(), snap.Rows(), len(model))
	}
	// The model checks values the caller can see; the per-row reference also
	// pins the masks' presence and the values stored under NULLs.
	requireMatchesReference(t, snap, fmt.Sprintf("epoch %d", snap.Epoch()))
	for ci, col := range tab.Columns() {
		for ri, row := range model {
			want := row[ci]
			if col.IsNull(ri) != want.Null {
				t.Fatalf("epoch %d row %d col %s: null=%v, want %v", snap.Epoch(), ri, col.Name(), col.IsNull(ri), want.Null)
			}
			if want.Null {
				continue
			}
			switch col.Kind() {
			case core.Int64:
				if col.Int64(ri) != want.Int {
					t.Fatalf("epoch %d row %d col %s: %d != %d", snap.Epoch(), ri, col.Name(), col.Int64(ri), want.Int)
				}
			case core.Float64:
				if math.Float64bits(col.Float64(ri)) != math.Float64bits(want.Float) {
					t.Fatalf("epoch %d row %d col %s: %v != %v", snap.Epoch(), ri, col.Name(), col.Float64(ri), want.Float)
				}
			case core.String:
				if col.StringAt(ri) != want.Str {
					t.Fatalf("epoch %d row %d col %s: %q != %q", snap.Epoch(), ri, col.Name(), col.StringAt(ri), want.Str)
				}
			default:
				if col.Bool(ri) != want.Bool {
					t.Fatalf("epoch %d row %d col %s: %v != %v", snap.Epoch(), ri, col.Name(), col.Bool(ri), want.Bool)
				}
			}
		}
	}
}
