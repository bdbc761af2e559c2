// Package mst implements the merge sort tree from "Efficient Evaluation of
// Arbitrarily-Framed Holistic SQL Aggregates and Window Functions"
// (SIGMOD 2022), §4 and §5.1.
//
// A merge sort tree over an array keeps the intermediate sorted runs of a
// (multiway) merge sort: level 0 is the original array, level l consists of
// sorted runs of length fanoutˡ, and the top level is one fully sorted run.
// The tree supports two-dimensional range queries over (position, value),
// answered a whole probe chunk at a time by level-synchronous kernels:
//
//   - CountBelowBatch: how many entries in positions [lo, hi) have a value
//     smaller than a threshold — the primitive behind framed COUNT DISTINCT
//     (§4.2), framed rank functions (§4.4) and LEAD/LAG's row number (§4.6);
//   - SelectKthRangesBatch: the i-th entry (in position order) whose value
//     falls in a union of value ranges — the primitive behind framed
//     percentiles and value functions (§4.5) and LEAD/LAG's target row;
//   - AnnotatedTree additionally stores per-element prefix aggregates so
//     arbitrary distinct distributive aggregates can be framed (§4.3,
//     AggBelowBatch).
//
// Queries run in O(log n) thanks to fractional cascading: every k-th element
// of each run is annotated with, per child run, the number of elements the
// merge had consumed from that child (§4.2, Figures 3 and 4). On top of the
// paper's samples every merged element keeps one byte naming the child run
// it was taken from (the origin stripe); sample row plus a scan of fewer than
// k origin bytes is the exact rank of every child, so no descent searches
// below the top run (step.go). Both the fanout f (at most MaxFanout) and the
// sampling parameter k are configurable; the paper settles on f = k = 32
// (§6.6) and so do we.
//
// A Tree is built in one of three forms (Form), chosen by the caller from the
// widest range its queries can span and the way consecutive queries move;
// every form answers every count query it is asked, and the forms differ in
// what they keep and so in what a query costs:
//
//   - Full, the whole tree above: every merge level, the samples and origin
//     stripes, and the top run's base positions (topPos);
//   - Sliding, level 0, topPos and the threshold rank table below — 12 bytes
//     per element against the full tree's ~46 — for count queries that
//     slide: a query close to the one before it is that query's count plus
//     the difference (count_diff.go), any other is a scan of level 0;
//   - Leaves, level 0 only, for queries of at most LeafRows rows (leaf.go).
//
// Only the full form answers select queries.
//
// Payload values are plain integers: the window operator's preprocessing
// (package preprocess) maps previous-occurrence indices, dense ranks and
// permutation entries to the integer domain [0, n] with n < 2³¹ − 1, so
// every tree stores 32-bit elements — the representation §5.1 argues for on
// memory bandwidth — and Build rejects a key outside [0, math.MaxInt32 − 1]
// with a PayloadRangeError (maxKey says why the top value is left out).
package mst

import (
	"context"
	"fmt"
	"math"

	"holistic/internal/arena"
	"holistic/internal/obs"
)

// DefaultFanout is the tree fanout f chosen by the paper's parameter study
// (§6.6, Figure 13).
const DefaultFanout = 32

// DefaultSampleEvery is the cascading-pointer sampling parameter k chosen by
// the paper's parameter study (§6.6, Figure 13).
const DefaultSampleEvery = 32

// MaxFanout is the largest supported fanout: child indices must fit the
// one-byte entries of the merge-origin stripes, and the paper's parameter
// grid (Figure 13) tops out there too.
const MaxFanout = maxOriginFanout

// FanoutError reports a fanout outside [2, MaxFanout].
type FanoutError struct{ Fanout int }

func (e *FanoutError) Error() string {
	return fmt.Sprintf("mst: fanout must be in [2, %d], got %d", MaxFanout, e.Fanout)
}

// PayloadRangeError reports a key outside the payload domain
// [0, math.MaxInt32 − 1]: Pos is its index in the input, Value the key.
type PayloadRangeError struct {
	Pos   int
	Value int64
}

func (e *PayloadRangeError) Error() string {
	return fmt.Sprintf("mst: key %d at position %d outside the payload domain [0, %d]", e.Value, e.Pos, maxKey)
}

// Options configures tree construction.
type Options struct {
	// Fanout is the number of child runs merged into one parent run (f).
	// 0 selects DefaultFanout. Must be in [2, MaxFanout] otherwise.
	Fanout int
	// SampleEvery is the cascading-pointer sampling distance (k): every
	// k-th element of a run carries pointers into the child runs.
	// 0 selects DefaultSampleEvery. Must be >= 1 otherwise.
	SampleEvery int
	// Context, when non-nil, is the context construction runs under: its
	// worker cap (parallel.ContextWithLimit) bounds the build's parallel
	// loops, and once it is done they stop between tasks and the build
	// returns its error. Like Trace it never influences the built structure.
	Context context.Context
	// Trace, when non-nil, receives one child span per merge level during
	// construction. It never influences the built structure, so it is
	// excluded from structural signatures.
	Trace *obs.Span
}

// withDefaults fills the parameters left zero with the paper's f = k = 32.
func (o Options) withDefaults() Options {
	if o.Fanout == 0 {
		o.Fanout = DefaultFanout
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	return o
}

// stored is o as a built tree keeps it: without the context and the trace
// span, which only construction reads and a cached tree must not keep alive.
func (o Options) stored() Options {
	o.Context, o.Trace = nil, nil
	return o
}

func (o Options) validate() error {
	if o.Fanout < 2 || o.Fanout > MaxFanout {
		return &FanoutError{Fanout: o.Fanout}
	}
	if o.SampleEvery < 1 {
		return fmt.Errorf("mst: sample distance must be >= 1, got %d", o.SampleEvery)
	}
	return nil
}

// tree is the monolithic merge sort tree over 32-bit payloads. levels[0] is
// the input at 32 bits (payloadBase); levels[top] is a single sorted run.
type tree struct {
	n int
	f int // fanout
	k int // sample distance
	// levels[l] holds the concatenated sorted runs of length runLen(l).
	levels [][]int32
	// samples[l] (l >= 1) holds the cascading pointers of level l: for run
	// r and sample s (covering the run prefix of length s·k), f int32
	// consumed-element counts, one per child run. Flattened as
	// samples[l][r*stride(l) + s*f + child].
	samples [][]int32
	// stride[l] is the per-run sample stride at level l, padded to whole
	// cache lines (sampleStride, soa.go).
	stride []int
	// origin[l] (l >= 1) is the merge-origin stripe of level l, parallel to
	// levels[l]: origin[l][p] is the index, within its run's children, of
	// the child run the merge took element p from. Together with the samples
	// it makes every child rank exact (step.go).
	origin [][]uint8
	// effLen[l] is the run length at level l (f^l), clamped to n at the top.
	effLen []int
	// topPos[p] is the base position of the element at position p of the top
	// run: the stable argsort of levels[0], which lets the count and select
	// kernels answer a query from its predecessor's answer (count_diff.go,
	// select_diff.go). The full and sliding forms keep it; nil when a key
	// exceeds n and on leaf-only and annotated trees.
	topPos []int32
	// below[x] is the number of keys smaller than x, for x in [0, n+1]: a
	// threshold's rank in the top run, which the sliding form looks up where
	// the full form gallops (countKernel). nil on every other form.
	below []int32
}

// Form is the shape a Tree is built in: what it keeps besides level 0, and
// so what its queries cost (see the package comment).
type Form uint8

const (
	// Full keeps every merge level, the samples and origin stripes, and
	// topPos over keys in [0, n].
	Full Form = iota
	// Sliding keeps level 0, topPos and the threshold rank table: count
	// queries close to their predecessor are answered from it, every other
	// one by a scan of level 0. Over a key above n it is built Full.
	Sliding
	// Leaves keeps level 0 only and answers ranges of at most LeafRows rows.
	Leaves
)

// String names the form as traces and cache keys do: full, slide or leaf.
func (f Form) String() string {
	switch f {
	case Sliding:
		return "slide"
	case Leaves:
		return "leaf"
	}
	return "full"
}

// Tree is a merge sort tree over a payload array of non-negative 32-bit
// integers, handed in as int32 or int64 and queried as int64 (§5.1).
type Tree struct {
	tr   *tree
	n    int
	opt  Options
	form Form
}

// maxKey is the largest key Build accepts. It stays below math.MaxInt32,
// the largest clamped value bound, so a select range whose exclusive upper
// bound lies past the 32-bit domain still takes every key.
const maxKey = math.MaxInt32 - 1

// Build constructs the full merge sort tree over keys: BuildForm's Full form.
func Build[K int32 | int64](keys []K, opt Options) (*Tree, error) { return BuildForm(keys, opt, Full) }

// BuildForm constructs a merge sort tree over keys in the given form. Keys
// must lie in [0, math.MaxInt32 − 1] (the preprocessing stages only produce
// non-negative integers below the row count, which is below 2³¹ − 1; the
// special value "–" is mapped to 0 with all indices shifted by one, §5.1);
// any other key is answered with a PayloadRangeError. Level 0 is the keys at
// the tree's 32-bit width: an []int32 input becomes level 0 itself, so the
// caller must not modify it afterwards, and an []int64 input is narrowed
// into a copy. A Sliding tree over a key above n is built Full — its
// rank table and topPos come from one counting pass over [0, n] — and so is
// a value outside the three forms. On the
// forms that skip the merge levels, Options shape nothing but the trace and
// what Stats reports. A merge cut short by a done Options.Context returns
// the context's error.
func BuildForm[K int32 | int64](keys []K, opt Options, form Form) (*Tree, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	base, err := payloadBase(keys)
	if err != nil {
		return nil, err
	}
	var tr *tree
	switch form {
	case Leaves:
		tr = leafTree(base, opt)
	case Sliding:
		tr = leafTree(base, opt)
		cnt := make([]int32, len(base)+3)
		if tr.topPos = topPositions(base, cnt); tr.topPos != nil {
			tr.below = cnt[:len(base)+2]
			break
		}
		form = Full
		tr, err = buildTree(base, opt)
	default:
		form = Full
		tr, err = buildTree(base, opt)
		if err != nil {
			break
		}
		cnt := arena.Int32s.GetZeroed(len(base) + 3)
		tr.topPos = topPositions(base, cnt)
		arena.Int32s.Put(cnt)
	}
	if err != nil {
		return nil, err
	}
	if form != Full {
		traceSkippedLevels(len(keys), opt, form)
	}
	return &Tree{n: len(keys), opt: opt.stored(), tr: tr, form: form}, nil
}

// Form returns the form the tree was built in: the one asked for, except
// that a Sliding tree over a key above n is Full.
func (t *Tree) Form() Form { return t.form }

// payloadBase checks keys against the element limit and the payload domain
// [0, maxKey] and returns them at 32 bits: level 0 of the tree. An []int32
// input is returned itself, an []int64 input narrowed into a copy.
func payloadBase[K int32 | int64](keys []K) ([]int32, error) {
	if len(keys) >= math.MaxInt32 {
		return nil, fmt.Errorf("mst: input of %d elements exceeds the 2³¹ element limit", len(keys))
	}
	for i, v := range keys {
		if v < 0 || v > maxKey {
			return nil, &PayloadRangeError{Pos: i, Value: int64(v)}
		}
	}
	if base, ok := any(keys).([]int32); ok {
		return base, nil
	}
	base := make([]int32, len(keys))
	for i, v := range keys {
		//lint:narrowconv-ok the pass above proved every key is in [0, maxKey]
		base[i] = int32(v)
	}
	return base, nil
}

// Len returns the number of elements the tree was built over.
func (t *Tree) Len() int { return t.n }

// CountBelow returns the number of entries at positions [lo, hi) whose value
// is strictly smaller than threshold, lo and hi clamped to [0, Len()]: a
// batch of one over CountBelowBatch. The window operator batches every
// query; this stays exported only for bench/layers.go's per-query probe
// timing (ROADMAP 18).
func (t *Tree) CountBelow(lo, hi int, threshold int64) int {
	l, h := i32(min(max(lo, 0), t.n)), i32(min(max(hi, 0), t.n))
	var out [1]int32
	t.CountBelowBatch([]int32{l}, []int32{h}, []int64{threshold}, out[:])
	return int(out[0])
}

func clampI32(v int64) int32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// Value returns the payload value at base position pos.
func (t *Tree) Value(pos int) int64 {
	return int64(t.tr.levels[0][pos])
}

// runLen returns f^l clamped to n.
func (t *tree) runLen(level int) int { return t.effLen[level] }

// top returns the index of the topmost level (a single sorted run).
func (t *tree) top() int { return len(t.levels) - 1 }

// run returns the elements of the given run at the given level.
func (t *tree) run(level, run int) []int32 {
	rl := t.effLen[level]
	start := run * rl
	end := start + rl
	if end > t.n {
		end = t.n
	}
	return t.levels[level][start:end]
}
