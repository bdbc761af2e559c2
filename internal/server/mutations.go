package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/delta"
	"holistic/internal/server/api"
)

// handleMutations applies one batch of mutations to a dataset. The batch is
// atomic: it either advances the dataset's epoch by exactly one, or leaves it
// untouched (a bad cell in mutation 7 rolls back mutations 0-6). A stale
// expected_epoch answers 409 conflict. A batch invalidates no cache entry:
// keys name partition content, so the entries of untouched partitions are
// asked for again, and those of changed ones stay resident until the byte
// budget evicts them or the next compaction swap drops their generation.
func (s *Server) handleMutations(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.lookup(name)
	if !ok {
		writeError(w, httpErrorf(http.StatusNotFound, api.CodeNotFound, "unknown dataset %q", name))
		return
	}
	var req api.MutateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, requestError("mutate "+strconv.Quote(name), err))
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"mutate %q: empty mutation batch", name))
		return
	}
	muts := make([]delta.Mutation, len(req.Mutations))
	for i := range req.Mutations {
		m, err := parseMutation(ds, &req.Mutations[i])
		if err != nil {
			writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument,
				"mutate %q: mutation %d: %v", name, i, err))
			return
		}
		muts[i] = m
	}
	expected := int64(-1)
	if req.ExpectedEpoch != nil {
		expected = *req.ExpectedEpoch
	}
	epoch, err := ds.buf.Apply(expected, muts)
	if err != nil {
		var conflict *delta.EpochConflictError
		if errors.As(err, &conflict) {
			writeError(w, httpErrorf(http.StatusConflict, api.CodeConflict, "mutate %q: %v", name, err))
			return
		}
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "mutate %q: %v", name, err))
		return
	}
	snap := ds.buf.Snapshot()
	s.log.Info("mutations applied",
		"dataset", name, "epoch", epoch, "applied", len(muts),
		"rows", snap.Rows(), "delta_rows", snap.DeltaRows())
	writeJSON(w, http.StatusOK, api.MutateResponse{
		Epoch:     epoch,
		Applied:   len(muts),
		Rows:      snap.Rows(),
		DeltaRows: snap.DeltaRows(),
	})
}

// parseMutation converts one wire-form mutation into the typed row the delta
// buffer consumes, aligned with the dataset's base schema. Columns absent
// from the map are NULL; unknown columns are rejected so typos don't pass as
// implicit NULLs everywhere else.
func parseMutation(ds *dataset, spec *api.MutationSpec) (delta.Mutation, error) {
	var op delta.Op
	switch spec.Op {
	case api.OpAppend:
		op = delta.OpAppend
	case api.OpUpsert:
		op = delta.OpUpsert
	case api.OpDelete:
		op = delta.OpDelete
	default:
		return delta.Mutation{}, fmt.Errorf("unknown op %q (want %q, %q or %q)",
			spec.Op, api.OpAppend, api.OpUpsert, api.OpDelete)
	}
	cols := ds.schema.Columns()
	seen := 0
	row := make([]delta.Value, len(cols))
	for i, c := range cols {
		cell, ok := spec.Row[c.Name()]
		if !ok {
			row[i] = delta.NullValue(c.Kind())
			continue
		}
		seen++
		v, err := parseCell(c.Kind(), ds.dates[c.Name()], cell)
		if err != nil {
			return delta.Mutation{}, fmt.Errorf("column %q: %v", c.Name(), err)
		}
		row[i] = v
	}
	if seen != len(spec.Row) {
		for name := range spec.Row {
			if ds.schema.Column(name) == nil {
				return delta.Mutation{}, fmt.Errorf("unknown column %q", name)
			}
		}
	}
	return delta.Mutation{Op: op, Row: row}, nil
}

// parseCell parses one rendered cell into a typed value, mirroring the CSV
// reader's forms (ISO dates for date columns, true/false bools, and an
// empty cell as NULL whatever the column's kind).
func parseCell(kind core.Kind, isDate bool, cell string) (delta.Value, error) {
	if cell == "" {
		return delta.NullValue(kind), nil
	}
	switch kind {
	case core.Int64:
		if isDate {
			day, err := csvio.DateToDay(cell)
			if err != nil {
				return delta.Value{}, fmt.Errorf("bad date %q: %v", cell, err)
			}
			return delta.Int64Value(day), nil
		}
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return delta.Value{}, fmt.Errorf("bad int %q", cell)
		}
		return delta.Int64Value(n), nil
	case core.Float64:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return delta.Value{}, fmt.Errorf("bad float %q", cell)
		}
		return delta.Float64Value(f), nil
	case core.String:
		return delta.StringValue(cell), nil
	case core.Bool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return delta.Value{}, fmt.Errorf("bad bool %q", cell)
		}
		return delta.BoolValue(b), nil
	}
	return delta.Value{}, fmt.Errorf("unsupported column kind %v", kind)
}
