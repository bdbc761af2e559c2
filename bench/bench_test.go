package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs both passes of every workload end to end against the
// in-process server and checks that every metric BENCHMARK.json declares is
// reported, with its unit.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-smoke", "-repo", "..", "-work", t.TempDir(), "-trace-out", traceOut}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]result `json:"workloads"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	bf := loadBenchmarkFile(t)
	for _, w := range workloads() {
		r, ok := doc.Workloads[w.Name]
		if !ok || !r.Correct || r.Failed != 0 || r.Attempted != 3+3 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (present=%v)", w.Name, r.Correct, r.Attempted, r.Failed, ok)
		}
		want := map[string]string{}
		for _, m := range bf.EndToEnd {
			want[m.Name] = m.Unit
		}
		for _, m := range bf.PerLayer {
			want[m.Name] = m.Unit
		}
		for name, unit := range want {
			if got, ok := r.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("%s: metric %s: unit %q (present=%v), want %q", w.Name, name, got.Unit, ok, unit)
			}
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", w.Name, len(r.Metrics), len(want))
		}
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	b, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace file: %v, %d events", err, len(trace.TraceEvents))
	}
}

// TestDriverLine checks the line the benchmark driver reads: exactly the
// contract's keys, and exactly the end-to-end or the per-layer metrics.
func TestDriverLine(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for trace, want := range map[string]int{"0": len(bf.EndToEnd), "1": len(bf.PerLayer)} {
		var out bytes.Buffer
		err := run([]string{"-smoke", "-repo", "..", "-work", t.TempDir(),
			"--workload", "warm_slider_200k", "--seed", "7", "--seconds", "15", "--trace", trace}, &out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatal(err)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || len(metrics) != want {
			t.Errorf("--trace %s: keys %v, %d metrics, want %d", trace, line, len(metrics), want)
		}
	}
}

// TestGenerateDeterministic: one seed gives identical CSV and segment bytes,
// another seed does not.
func TestGenerateDeterministic(t *testing.T) {
	specs := eventsSchema()
	render := func(seed int64) (csv []byte, seg []byte) {
		d := generate(specs, 1000, seed)
		csv, err := d.csvBytes()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := d.writeSegments(dir); err != nil {
			t.Fatal(err)
		}
		seg, err = os.ReadFile(filepath.Join(dir, "part-000000.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return csv, seg
	}
	csv1, seg1 := render(1)
	csv1b, seg1b := render(1)
	csv2, seg2 := render(2)
	if !bytes.Equal(csv1, csv1b) || !bytes.Equal(seg1, seg1b) {
		t.Error("the same seed generated different bytes")
	}
	if bytes.Equal(csv1, csv2) || bytes.Equal(seg1, seg2) {
		t.Error("different seeds generated the same bytes")
	}
	if inputKey(specs, 1000, 1) == inputKey(specs, 1000, 2) || inputKey(specs, 1000, 1) == inputKey(specs[:3], 1000, 1) {
		t.Error("input cache keys collide across seeds or schemas")
	}
	// A workload that uses fewer columns sees the same values in them.
	few := generate(pickCols(specs, "id", "cat"), 1000, 1)
	if all := generate(specs, 1000, 1); !equalInts(few.byName["cat"].vals, all.byName["cat"].vals) {
		t.Error("a column's values depend on which other columns are generated")
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParameterGrids: statements never repeat within a server lifetime,
// except in the workload whose point is the repeated statement.
func TestParameterGrids(t *testing.T) {
	for _, w := range workloads() {
		n := min(w.MaxOps, 400)
		seen := map[string]bool{}
		for _, s := range w.Statements(rand.New(rand.NewSource(3)), n) {
			seen[s.sql(dataset)] = true
		}
		switch {
		case w.Mutates && len(seen) != 1:
			t.Errorf("%s: %d distinct statements, want one fixed statement", w.Name, len(seen))
		case !w.Mutates && len(seen) != n:
			t.Errorf("%s: %d distinct statements among %d drawn", w.Name, len(seen), n)
		}
		if got := w.ops(15); got < 1 || got+w.Warmups > w.MaxOps {
			t.Errorf("%s: %d timed ops plus %d warm-ups exceed the grid of %d", w.Name, got, w.Warmups, w.MaxOps)
		}
		if a, b := w.ops(15), w.ops(15); a != b {
			t.Errorf("%s: operation count is not a function of --seconds", w.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.95, 38.5}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestProcReaders(t *testing.T) {
	stat := "1234 (win dowd) x) S 1 1234 1234 0 -1 4194560 9 0 0 0 250 50 0 0 20 0 7 0 100 1 2 3"
	if got, err := parseProcStat(stat); err != nil || got != 3*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 3s", got, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	if got, err := parseVmHWM("Name:\twindowd\nVmHWM:\t  265860 kB\nVmRSS:\t 1 kB\n"); err != nil || got != 265860<<10 {
		t.Errorf("parseVmHWM = %v, %v", got, err)
	}
	if _, err := parseVmHWM("Name:\twindowd\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %v, %v", rss, err)
	}
}

func TestCountRows(t *testing.T) {
	cases := map[string]int{
		`{"columns":["id","v"],"rows":[["0","1"],["1","a]\"[b"]],"nulls":[[false,false],[false,true]],"stats":{"rows":[1,2,3]}}`: 2,
		`{"columns":["rows"],"rows":[],"stats":{}}`: 0,
		`{"columns":["id"]}`:                        -1,
		`{"columns":["id"],"rows":[["0"],["1"]`:     -1,
	}
	for body, want := range cases {
		if got := countRows([]byte(body)); got != want {
			t.Errorf("countRows(%s) = %d, want %d", body, got, want)
		}
	}
}

// TestNaiveEval pins the naive evaluator on a hand-checked table, NULLs
// included: it is the reference every answer is compared with.
func TestNaiveEval(t *testing.T) {
	specs := []colSpec{{Name: "id", Kind: kindSeq}, {Name: "g", Kind: kindUniform, Card: 2}, {Name: "ts", Kind: kindUniform, Card: 9},
		{Name: "v", Kind: kindCents, Card: 9, NullRatio: 0.5}}
	d := generate(specs, 5, 1)
	copy(d.byName["g"].vals, []int64{0, 0, 0, 0, 1})
	copy(d.byName["ts"].vals, []int64{3, 1, 2, 4, 0}) // window order of g=0: ids 1, 2, 0, 3
	copy(d.byName["v"].vals, []int64{250, 100, 250, 0, 700})
	copy(d.byName["v"].nulls, []bool{false, false, false, true, false})
	got := naiveEval(d, statement{Partition: "g", Order: "ts", Preceding: 2, Funcs: []fn{
		{Kind: fnCountDistinct, Arg: "v"}, {Kind: fnPercentileDisc, Arg: "v", Frac: 0.5}, {Kind: fnRank, Arg: "v"},
		{Kind: fnDenseRank, Arg: "v"}, {Kind: fnSumDistinct, Arg: "v"}}})
	want := map[int64][]string{
		1: {"1", "1", "1", "1", "1"},     // frame {1}
		2: {"2", "1", "2", "2", "3.5"},   // frame {1, 2}
		0: {"2", "2.5", "2", "2", "3.5"}, // frame {1, 2, 0}: values 1, 2.5, 2.5
		3: {"1", "2.5", "3", "2", "2.5"}, // frame {2, 0, 3}: values 2.5, 2.5, NULL; the NULL row ranks last
		4: {"1", "7", "1", "1", "7"},     // the other partition
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("naiveEval:\n got  %v\n want %v", got, want)
	}
}

// TestMutatorKeepsModelInStep: the model's live count follows the planned
// batches, and no batch touches a row twice.
func TestMutatorKeepsModelInStep(t *testing.T) {
	w := workloads()[3]
	d := generate(pickCols(eventsSchema(), w.Cols...), 20000, 5)
	ops, err := newPlanner(w, d, dataset, 5, 4).all()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		if want := 20000 + (i+1)*(batchAppends-batchDeletes); o.Rows != want {
			t.Errorf("op %d expects %d rows, want %d", i, o.Rows, want)
		}
		muts, err := toDelta(o.Mutations, pickCols(eventsSchema(), w.Cols...))
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int64]bool{}
		for _, m := range muts {
			if ids[m.Row[0].Int] {
				t.Errorf("op %d touches id %d twice", i, m.Row[0].Int)
			}
			ids[m.Row[0].Int] = true
		}
		if len(muts) != batchUpserts+batchAppends+batchDeletes {
			t.Errorf("op %d has %d mutations", i, len(muts))
		}
	}
}
