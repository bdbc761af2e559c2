package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/delta"
	"holistic/internal/frame"
	"holistic/internal/ingest"
	"holistic/internal/mst"
	"holistic/internal/parallel"
	"holistic/internal/preprocess"
	"holistic/internal/rangetree"
	"holistic/internal/segment"
	"holistic/internal/server/api"
	"holistic/internal/sqlparse"
	"holistic/internal/treecache"
)

// layerReps is how often each in-process call is repeated; the median is
// reported. Three, not more, so that a traced run of the 1M-row workload
// stays inside the driver's time budget.
const layerReps = 3

// sampler collects repeated timings per metric name. Within one repetition
// several calls may add to the same name (five functions all build trees);
// across repetitions the median of the sums is reported.
type sampler struct {
	h    *harness
	rep  int
	span int // enclosing span of the current repetition
	sums map[string][]time.Duration
}

func newSampler(h *harness) *sampler {
	return &sampler{h: h, span: -1, sums: map[string][]time.Duration{}}
}

// time runs fn as a span of the named metric and adds its duration to the
// current repetition's sum.
func (s *sampler) time(name string, fn func()) {
	d := s.h.tr.timed(name, s.rep, s.span, fn)
	for len(s.sums[name]) <= s.rep {
		s.sums[name] = append(s.sums[name], 0)
	}
	s.sums[name][s.rep] += d
}

// ms is the median over the repetitions, in milliseconds; 0 for a layer the
// workload never called.
func (s *sampler) ms(name string) float64 { return median(msAll(s.sums[name])) }

// layers times calls into each layer's public functions on the workload's
// generated data. A layer the workload bypasses reports 0.
func (h *harness) layers(p *prepared, m map[string]metric) error {
	s := newSampler(h)
	file := p.d.file(0, p.d.rows())
	stmt := p.timed[0].Stmt

	if err := h.registrationLayers(p, s, m); err != nil {
		return err
	}
	if err := planLayers(s, m, stmt, file.Table); err != nil {
		return err
	}
	probed, treeBytes, err := stageLayers(s, p.d, stmt)
	if err != nil {
		return err
	}
	perRow := func(name string) metric {
		if probed[name] == 0 {
			return metric{0, "ns/row"}
		}
		return metric{1e6 * s.ms(name) / float64(probed[name]), "ns/row"}
	}
	// What the run spends outside the staged calls is core.overhead_ms:
	// partitioning, frame bounds, result scatter. The scalar probe is not
	// part of a run.
	staged := 0.0
	for _, name := range []string{"preprocess.sort_ms", "preprocess.prev_idcs_ms", "preprocess.permutation_ms",
		"preprocess.dense_ranks_ms", "mst.build_ms", "rangetree.build_ms"} {
		m[name] = metric{s.ms(name), "ms"}
		staged += s.ms(name)
	}
	for _, name := range []string{"mst.count_batch", "mst.select_batch", "mst.agg_batch", "rangetree.dense_rank_batch"} {
		m[name+"_ns_per_row"] = perRow(name)
		staged += s.ms(name)
	}
	m["mst.tree_mb"] = metric{float64(treeBytes) / (1 << 20), "MB"}
	m["mst.count_scalar_ns_per_row"] = perRow("mst.count_scalar")

	if err := coreLayers(s, m, stmt, file.Table); err != nil {
		return err
	}
	m["core.overhead_ms"] = metric{m["core.run_cold_ms"].Value - staged, "ms"}
	return deltaLayers(p, s, m, file.Table)
}

// registrationLayers times the layers on the workload's registration path:
// csvio for CSV loads and uploads, ingest and segment for segment datasets.
func (h *harness) registrationLayers(p *prepared, s *sampler, m map[string]metric) error {
	usesCSV := p.w.Reg == regLoadCSV || p.w.Reg == regUploadKeyed
	var csv []byte
	var err error
	if usesCSV {
		if csv, err = os.ReadFile(p.files.CSV); err != nil {
			return err
		}
	}
	segDir := p.files.SegDir
	for s.rep = 0; s.rep < layerReps && err == nil; s.rep++ {
		if usesCSV {
			s.time("csvio.read_ms", func() { _, err = csvio.Read(bytes.NewReader(csv)) })
			continue
		}
		if p.w.Reg == regIngest {
			segDir = filepath.Join(h.work, "run", fmt.Sprintf("layers-%d-%d", os.Getpid(), s.rep))
			s.time("ingest.run_ms", func() { _, err = ingest.New(p.files.CSV, segDir, ingest.Options{}).Run(context.Background()) })
			if err != nil {
				break
			}
		}
		s.time("segment.load_ms", func() {
			var d *segment.Dir
			if d, err = segment.OpenDir(segDir); err == nil {
				_, err = d.File(nil)
				_ = d.Close() // read-only
			}
		})
	}
	if err != nil {
		return err
	}
	mbPerS, bytesPerRow := 0.0, 0.0
	if usesCSV {
		mbPerS = float64(len(csv)) / (1 << 20) / (s.ms("csvio.read_ms") / 1e3)
	} else {
		entries, err := os.ReadDir(segDir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil && filepath.Ext(e.Name()) == segment.FileSuffix {
				bytesPerRow += float64(info.Size()) / float64(p.d.rows())
			}
		}
	}
	m["csvio.read_ms"] = metric{s.ms("csvio.read_ms"), "ms"}
	m["csvio.read_mb_per_s"] = metric{mbPerS, "MB/s"}
	m["ingest.run_ms"] = metric{s.ms("ingest.run_ms"), "ms"}
	m["segment.load_ms"] = metric{s.ms("segment.load_ms"), "ms"}
	m["segment.bytes_per_row"] = metric{bytesPerRow, "B/row"}
	return nil
}

// planLayers times the SQL front end and reads the plan's shape; for a
// multi-function statement it also compares execution with and without the
// shared-plan optimizer.
func planLayers(s *sampler, m map[string]metric, stmt statement, t *core.Table) error {
	sql := stmt.sql(dataset)
	var parse, build []float64
	var q *sqlparse.Query
	var err error
	for i := 0; i < 200; i++ {
		start := time.Now()
		if q, err = sqlparse.Parse(sql); err != nil {
			return err
		}
		mid := time.Now()
		if _, err = sqlparse.BuildPlan(q, t); err != nil {
			return err
		}
		parse = append(parse, float64(mid.Sub(start))/1e3)
		build = append(build, float64(time.Since(mid))/1e3)
	}
	pl, err := sqlparse.BuildPlan(q, t)
	if err != nil {
		return err
	}
	m["sqlparse.parse_us"] = metric{median(parse), "us"}
	m["plan.build_us"] = metric{median(build), "us"}
	m["plan.operators"] = metric{float64(pl.Stats.Operators), "count"}
	m["plan.sorts_shared"] = metric{float64(pl.Stats.SortsShared), "count"}
	m["plan.trees_shared"] = metric{float64(pl.Stats.TreesShared), "count"}
	speedup := 0.0
	if len(stmt.Funcs) > 1 {
		tables := map[string]*core.Table{dataset: t}
		for s.rep = 0; s.rep < layerReps && err == nil; s.rep++ {
			s.time("plan.shared", func() { _, err = sqlparse.Execute(q, tables, core.Options{}) })
			if err == nil {
				s.time("plan.unshared", func() { _, err = sqlparse.Execute(q, tables, core.Options{NoSharedPlan: true}) })
			}
		}
		if err != nil {
			return err
		}
		speedup = s.ms("plan.unshared") / s.ms("plan.shared")
	}
	m["plan.shared_speedup"] = metric{speedup, "x"}
	return nil
}

// stageLayers walks the statement's evaluation stage by stage — window sort,
// then per function the preprocessing, the tree build and the batched probe —
// calling the public function of the layer that does each. A stage runs over
// all partitions with the program's own parallel.ForEach, as the operator
// does, so stage wall times add up against a whole core.Run. It returns how
// many rows each probe kernel answered and the bytes of the trees built.
func stageLayers(s *sampler, d *data, stmt statement) (probed map[string]int, treeBytes int, err error) {
	n := d.rows()
	order := d.byName[stmt.Order].vals
	var part []int64
	if stmt.Partition != "" {
		part = d.byName[stmt.Partition].vals
	}
	for s.rep = 0; s.rep < layerReps; s.rep++ {
		s.span = s.h.tr.begin("layers.stages", s.rep, -1)
		treeBytes, probed = 0, map[string]int{}
		var sorted []int32
		s.time("preprocess.sort_ms", func() {
			sorted = preprocess.SortIndices(n, func(a, b int) int {
				if part != nil && part[a] != part[b] {
					return cmp.Compare(part[a], part[b])
				}
				return cmp.Compare(order[a], order[b])
			})
		})
		// Partitions as ranges of the sorted order, and their frame bounds.
		var parts [][2]int
		var bounds []frameBounds
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && (part == nil || part[sorted[hi]] == part[sorted[lo]]) {
				hi++
			}
			parts = append(parts, [2]int{lo, hi})
			bounds = append(bounds, newFrameBounds(hi-lo, stmt.Preceding))
			lo = hi
		}
		for _, f := range stmt.Funcs {
			bytes, err := stageFunc(s, d.byName[f.Arg], f, sorted, parts, bounds, probed)
			if err != nil {
				return nil, 0, err
			}
			treeBytes += bytes
		}
		s.h.tr.end(s.span)
		s.span = -1
	}
	return probed, treeBytes, nil
}

// stageFunc runs one function's stages over every partition.
func stageFunc(s *sampler, arg *column, f fn, sorted []int32, parts [][2]int, bounds []frameBounds, probed map[string]int) (treeBytes int, err error) {
	np := len(parts)
	// keys[p] is the argument in window order; NULL sorts largest.
	keys := make([][]int64, np)
	for p, r := range parts {
		k := make([]int64, r[1]-r[0])
		for i := range k {
			row := sorted[r[0]+i]
			k[i] = arg.vals[row]
			if arg.nulls != nil && arg.nulls[row] {
				k[i] = math.MaxInt64
			}
		}
		keys[p] = k
	}
	errs := make([]error, np)
	each := func(name string, body func(p int) error) {
		s.time(name, func() {
			parallel.ForEach(np, func(p int) {
				if errs[p] == nil {
					errs[p] = body(p)
				}
			})
		})
	}
	// probe runs a batched kernel over a partition in the operator's task
	// granularity; a single large partition spreads its tasks over the
	// workers.
	probe := func(name string, kernel func(p, lo, hi int)) {
		each(name, func(p int) error {
			parallel.For(len(keys[p]), parallel.DefaultTaskSize, func(lo, hi int) { kernel(p, lo, hi) })
			return nil
		})
		for _, k := range keys {
			probed[name] += len(k)
		}
	}
	trees := make([]*mst.Tree, np)
	buildTrees := func(payload [][]int64) {
		each("mst.build_ms", func(p int) (err error) {
			trees[p], err = mst.Build(payload[p], mst.Options{})
			return err
		})
	}
	out := make([][]int32, np)
	for p := range out {
		out[p] = make([]int32, len(keys[p]))
	}
	prev := make([][]int64, np)
	sortedByArg := make([][]int32, np)
	ranks := make([][]int64, np)
	sortByArg := func() {
		each("preprocess.sort_ms", func(p int) error {
			sortedByArg[p] = preprocess.SortIndicesByKey(keys[p])
			return nil
		})
	}
	denseRanks := func() {
		each("preprocess.dense_ranks_ms", func(p int) error {
			k := keys[p]
			ranks[p], _ = preprocess.DenseRanks(sortedByArg[p], func(a, b int) bool { return k[a] == k[b] })
			return nil
		})
	}
	prevIdcs := func(of [][]int64) {
		each("preprocess.prev_idcs_ms", func(p int) error {
			prev[p] = preprocess.PrevIndicesByKey(of[p])
			return nil
		})
	}

	switch f.Kind {
	case fnCountDistinct:
		prevIdcs(keys)
		buildTrees(prev)
		probe("mst.count_batch", func(p, lo, hi int) {
			fr := bounds[p]
			trees[p].CountBelowBatch(fr.lo[lo:hi], fr.hi[lo:hi], fr.loPlus1[lo:hi], out[p][lo:hi])
		})
		probe("mst.count_scalar", func(p, lo, hi int) {
			fr := bounds[p]
			for i := lo; i < hi; i++ {
				out[p][i] = int32(trees[p].CountBelow(int(fr.lo[i]), int(fr.hi[i]), fr.loPlus1[i]))
			}
		})
	case fnSumDistinct:
		prevIdcs(keys)
		ann := make([]*mst.AnnotatedTree[int64], np)
		each("mst.build_ms", func(p int) (err error) {
			ann[p], err = mst.BuildAnnotated(prev[p], keys[p], func(a, b int64) int64 { return a + b }, mst.Options{})
			return err
		})
		sums := make([][]int64, np)
		oks := make([][]bool, np)
		for p := range sums {
			sums[p], oks[p] = make([]int64, len(keys[p])), make([]bool, len(keys[p]))
		}
		probe("mst.agg_batch", func(p, lo, hi int) {
			fr := bounds[p]
			ann[p].AggBelowBatch(fr.lo[lo:hi], fr.hi[lo:hi], fr.loPlus1[lo:hi], sums[p][lo:hi], oks[p][lo:hi], out[p][lo:hi])
		})
		for _, a := range ann {
			treeBytes += int(a.MemBytes(8))
		}
	case fnPercentileDisc:
		sortByArg()
		perm := make([][]int64, np)
		each("preprocess.permutation_ms", func(p int) error {
			perm[p] = preprocess.Permutation(sortedByArg[p])
			return nil
		})
		buildTrees(perm)
		probe("mst.select_batch", func(p, lo, hi int) {
			fr := bounds[p]
			m := hi - lo
			off, k := make([]int32, m+1), make([]int32, m)
			vlo, vhi := make([]int64, m), make([]int64, m)
			for q := 0; q < m; q++ {
				a, b := fr.lo[lo+q], fr.hi[lo+q]
				off[q+1] = int32(q + 1)
				vlo[q], vhi[q] = int64(a), int64(b)
				k[q] = int32(min(max(int(math.Ceil(f.Frac*float64(b-a)))-1, 0), int(b-a)-1))
			}
			trees[p].SelectKthRangesBatch(off, vlo, vhi, k, out[p][lo:hi])
		})
	case fnRank:
		sortByArg()
		denseRanks()
		buildTrees(ranks)
		probe("mst.count_batch", func(p, lo, hi int) {
			fr := bounds[p]
			trees[p].CountBelowBatch(fr.lo[lo:hi], fr.hi[lo:hi], ranks[p][lo:hi], out[p][lo:hi])
		})
	case fnDenseRank:
		sortByArg()
		denseRanks()
		prevIdcs(ranks)
		rts := make([]*rangetree.DenseRankTree, np)
		each("rangetree.build_ms", func(p int) (err error) {
			rts[p], err = rangetree.New(ranks[p], prev[p], mst.Options{})
			return err
		})
		probe("rangetree.dense_rank_batch", func(p, lo, hi int) {
			fr := bounds[p]
			rts[p].CountDistinctBelowBatch(fr.lo[lo:hi], fr.hi[lo:hi], ranks[p][lo:hi], fr.loPlus1[lo:hi], out[p][lo:hi])
		})
		for _, rt := range rts {
			if rt != nil {
				treeBytes += int(rt.MemBytes())
			}
		}
	}
	for _, t := range trees {
		if t != nil {
			treeBytes += t.Stats().Bytes
		}
	}
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return treeBytes, nil
}

// frameBounds are the ROWS BETWEEN preceding PRECEDING AND CURRENT ROW frame
// bounds of one partition, in the array forms the batched kernels take.
type frameBounds struct {
	lo, hi  []int32
	loPlus1 []int64 // the distinct-count threshold: first occurrence inside the frame
}

func newFrameBounds(n, preceding int) frameBounds {
	f := frameBounds{lo: make([]int32, n), hi: make([]int32, n), loPlus1: make([]int64, n)}
	for i := 0; i < n; i++ {
		lo := max(0, i-preceding)
		f.lo[i], f.hi[i], f.loPlus1[i] = int32(lo), int32(i+1), int64(lo)+1
	}
	return f
}

// windowSpec is the statement as the operator takes it.
func (s statement) windowSpec(preceding int) *core.WindowSpec {
	w := &core.WindowSpec{
		OrderBy:  []core.SortKey{{Column: s.Order}},
		FrameSet: true,
		Frame: frame.Spec{Mode: frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: int64(preceding)},
			End:   frame.Bound{Type: frame.CurrentRow}},
	}
	if s.Partition != "" {
		w.PartitionBy = []string{s.Partition}
	}
	for i, f := range s.Funcs {
		spec := core.FuncSpec{Output: "f" + strconv.Itoa(i)}
		switch f.Kind {
		case fnCountDistinct:
			spec.Name, spec.Arg = core.CountDistinct, f.Arg
		case fnSumDistinct:
			spec.Name, spec.Arg = core.SumDistinct, f.Arg
		case fnPercentileDisc:
			spec.Name, spec.Fraction, spec.OrderBy = core.PercentileDisc, f.Frac, []core.SortKey{{Column: f.Arg}}
		case fnRank:
			spec.Name, spec.OrderBy = core.Rank, []core.SortKey{{Column: f.Arg}}
		case fnDenseRank:
			spec.Name, spec.OrderBy = core.DenseRank, []core.SortKey{{Column: f.Arg}}
		}
		w.Funcs = append(w.Funcs, spec)
	}
	return w
}

// coreLayers times whole operator runs: cold (no cache), warm (structures
// cached, a frame never seen before) and cold on one worker.
func coreLayers(s *sampler, m map[string]metric, stmt statement, t *core.Table) error {
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s.rep = 0; s.rep < layerReps && err == nil; s.rep++ {
		s.time("core.run_cold_ms", func() { _, err = core.Run(t, stmt.windowSpec(stmt.Preceding), core.Options{}) })
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m["core.run_cold_ms"] = metric{s.ms("core.run_cold_ms"), "ms"}
	m["core.alloc_mb_per_run"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / layerReps / (1 << 20), "MB"}

	cached := core.Options{Cache: treecache.New(1 << 30), CacheScope: "bench"}
	if _, err = core.Run(t, stmt.windowSpec(stmt.Preceding), cached); err != nil {
		return err
	}
	for s.rep = 0; s.rep < layerReps && err == nil; s.rep++ {
		s.time("core.run_warm_ms", func() { _, err = core.Run(t, stmt.windowSpec(stmt.Preceding+1+s.rep), cached) })
	}
	if err != nil {
		return err
	}
	m["core.run_warm_ms"] = metric{s.ms("core.run_warm_ms"), "ms"}

	prev := parallel.SetMaxWorkers(1)
	for s.rep = 0; s.rep < 2 && err == nil; s.rep++ {
		s.time("core.run_serial", func() { _, err = core.Run(t, stmt.windowSpec(stmt.Preceding), core.Options{}) })
	}
	parallel.SetMaxWorkers(prev)
	if err != nil {
		return err
	}
	m["parallel.core_run_speedup"] = metric{s.ms("core.run_serial") / s.ms("core.run_cold_ms"), "x"}
	return nil
}

// deltaLayers replays the workload's mutation batches into a delta buffer
// in-process: apply, then the merged table and delta view a query pins, and
// a compaction whenever the stated threshold asks for one.
func deltaLayers(p *prepared, s *sampler, m map[string]metric, t *core.Table) error {
	var apply, view, compact []float64
	if p.w.Mutates {
		buf, err := delta.NewBuffer(t, "id", delta.Options{CompactRows: 2048})
		if err != nil {
			return err
		}
		for i, o := range append(append([]op{}, p.warm...), p.timed...) {
			muts, err := toDelta(o.Mutations, p.specs)
			if err != nil {
				return err
			}
			d := s.h.tr.timed("delta.apply_ms", i, -1, func() { _, err = buf.Apply(-1, muts) })
			if err != nil {
				return err
			}
			apply = append(apply, ms(d))
			d = s.h.tr.timed("delta.view_ms", i, -1, func() {
				snap := buf.Snapshot()
				if _, err = snap.Table(); err == nil {
					_, err = snap.View()
				}
			})
			if err != nil {
				return err
			}
			view = append(view, ms(d))
			if buf.NeedsCompaction() {
				d = s.h.tr.timed("delta.compact_ms", i, -1, func() { _, _, err = buf.Compact() })
				if err != nil {
					return err
				}
				compact = append(compact, ms(d))
			}
		}
	}
	m["delta.apply_ms"] = metric{median(apply), "ms"}
	m["delta.view_ms"] = metric{median(view), "ms"}
	m["delta.compact_ms"] = metric{median(compact), "ms"}
	return nil
}

// toDelta converts a planned mutation request to the delta layer's rows.
func toDelta(body []byte, specs []colSpec) ([]delta.Mutation, error) {
	var req api.MutateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	ops := map[string]delta.Op{api.OpAppend: delta.OpAppend, api.OpUpsert: delta.OpUpsert, api.OpDelete: delta.OpDelete}
	muts := make([]delta.Mutation, len(req.Mutations))
	for i, spec := range req.Mutations {
		row := make([]delta.Value, len(specs))
		for c, col := range specs {
			cell, ok := spec.Row[col.Name]
			switch {
			case !ok && col.Kind == kindCents:
				row[c] = delta.NullValue(core.Float64)
			case !ok:
				row[c] = delta.NullValue(core.Int64)
			case col.Kind == kindCents:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, err
				}
				row[c] = delta.Float64Value(v)
			case col.Kind == kindDate:
				v, err := csvio.DateToDay(cell)
				if err != nil {
					return nil, err
				}
				row[c] = delta.Int64Value(v)
			default:
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, err
				}
				row[c] = delta.Int64Value(v)
			}
		}
		muts[i] = delta.Mutation{Op: ops[spec.Op], Row: row}
	}
	return muts, nil
}
