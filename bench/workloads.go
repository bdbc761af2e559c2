package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"holistic/internal/server/api"
)

// registration is the path a workload's dataset takes into the server; it is
// what the workload's setup_s covers.
type registration int

const (
	regLoadDir     registration = iota // segment directory, -load-dir at start
	regLoadCSV                         // CSV file, -load at start
	regIngest                          // CSV → segments through POST source=ingest
	regUploadKeyed                     // CSV body over HTTP with a mutation key
)

// workload is one fixed traffic mix against one dataset.
type workload struct {
	Name string
	Rows int
	Cols []string
	Reg  registration
	// Args are the windowd flags the workload states beyond -addr and the
	// registration flags.
	Args []string
	// Warmups is the number of untimed operations setup_s includes.
	Warmups int
	// OpsPerSecond fixes the timed operation count as a function of the
	// --seconds argument alone: ops = round(OpsPerSecond × seconds). It is
	// the reference machine's rate, so the timed phase lasts about --seconds
	// there, but the count never depends on how fast this run goes.
	OpsPerSecond float64
	// MaxOps caps warm-ups plus timed operations at the size of the
	// parameter grid, which is drawn without replacement.
	MaxOps int
	// Statements returns n statements in seeded order.
	Statements func(rng *rand.Rand, n int) []statement
	// Mutates makes every operation a write→read cycle: a mutation batch,
	// then the statement.
	Mutates bool
}

// verifyRows sizes the table the correctness pass runs every statement
// template on; smokeRows sizes every table under -smoke.
const (
	verifyRows = 5000
	smokeRows  = 2000
)

// ops is the timed operation count for a run of the given length.
func (w *workload) ops(seconds float64) int {
	n := int(math.Round(w.OpsPerSecond * seconds))
	return min(max(n, 1), w.MaxOps-w.Warmups)
}

const coldOrderColumns = 26 // ts00 … ts25

func workloads() []*workload {
	coldCols := []string{"id", "cat"}
	for i := 0; i < coldOrderColumns; i++ {
		coldCols = append(coldCols, fmt.Sprintf("ts%02d", i))
	}
	return []*workload{
		{
			// Every statement has a never-seen ORDER BY, and the cache is
			// smaller than one statement's structures, so each operation
			// pays sort → prevIdcs → tree build → count probe → 1M-row
			// encode, plus eviction.
			Name: "cold_1m", Rows: 1_000_000, Cols: coldCols, Reg: regLoadDir,
			Args:    []string{"-cache-bytes", "134217728"},
			Warmups: 1, OpsPerSecond: 0.7, MaxOps: coldOrderColumns,
			Statements: func(rng *rand.Rand, n int) []statement {
				out := make([]statement, n)
				for i, c := range rng.Perm(coldOrderColumns)[:n] {
					out[i] = statement{Order: fmt.Sprintf("ts%02d", c), Preceding: 9999,
						Funcs: []fn{{Kind: fnCountDistinct, Arg: "cat"}}}
				}
				return out
			},
		},
		{
			// Sort order and tree always hit the default 1 GiB cache, the
			// (fraction, frame) pair never repeats: only the select probe
			// and the response path run.
			Name: "warm_slider_200k", Rows: 200_000, Cols: []string{"id", "ts", "price"}, Reg: regLoadCSV,
			Warmups: 4, OpsPerSecond: 4.5, MaxOps: 19 * 16,
			Statements: func(rng *rand.Rand, n int) []statement {
				out := make([]statement, n)
				for i, g := range rng.Perm(19 * 16)[:n] {
					out[i] = statement{Order: "ts", Preceding: 500 + 100*(g/19),
						Funcs: []fn{{Kind: fnPercentileDisc, Arg: "price", Frac: float64(5*(g%19+1)) / 100}}}
				}
				return out
			},
		},
		{
			// 2,000 skewed partitions, five functions on one window: plan
			// sharing, partition detection, small-tree choices, the range
			// tree and per-partition allocation dominate.
			Name: "multi_partitioned_200k", Rows: 200_000,
			Cols: []string{"id", "grp", "ts", "cat", "qty", "price"}, Reg: regIngest,
			Warmups: 4, OpsPerSecond: 1.7, MaxOps: 100,
			Statements: func(rng *rand.Rand, n int) []statement {
				out := make([]statement, n)
				for i, g := range rng.Perm(100)[:n] {
					out[i] = statement{Partition: "grp", Order: "ts", Preceding: 10 + g, Funcs: []fn{
						{Kind: fnCountDistinct, Arg: "cat"},
						{Kind: fnPercentileDisc, Arg: "price", Frac: 0.5},
						{Kind: fnRank, Arg: "price"},
						{Kind: fnDenseRank, Arg: "price"},
						{Kind: fnSumDistinct, Arg: "qty"},
					}}
				}
				return out
			},
		},
		{
			// Writes beside reads: delta apply, incremental sort merge,
			// per-partition structure reuse and compaction. The statement is
			// fixed, so only what a batch touched is recomputed. The flush
			// policy is stated: compact at 2048 overlay rows, checked every
			// 2 s.
			Name: "mutate_requery_200k", Rows: 200_000,
			Cols: []string{"id", "grp100", "ts", "cat", "price"}, Reg: regUploadKeyed,
			Args:    []string{"-compact-rows", "2048", "-compact-interval", "2s"},
			Warmups: 4, OpsPerSecond: 7.5, MaxOps: 1 << 20, Mutates: true,
			Statements: func(_ *rand.Rand, n int) []statement {
				out := make([]statement, n)
				for i := range out {
					out[i] = statement{Partition: "grp100", Order: "ts", Preceding: 99, Funcs: []fn{
						{Kind: fnCountDistinct, Arg: "cat"},
						{Kind: fnPercentileDisc, Arg: "price", Frac: 0.5},
					}}
				}
				return out
			},
		},
	}
}

// op is one operation of a workload: an optional mutation batch, then a
// statement, and the row count a right answer has. Request bodies are encoded
// when the operation is planned, so the timed loop only writes bytes.
type op struct {
	Stmt        statement
	Mutations   []byte // JSON api.MutateRequest; nil for read-only workloads
	Query       []byte // JSON api.QueryRequest
	QueryTraced []byte // the same with include_trace set
	Rows        int
}

// planner draws a workload's operations in seeded order. For a mutating
// workload each next applies the planned batch to d, the client-side model,
// so d is always in the state the server reaches after that operation.
type planner struct {
	dataset string
	d       *data
	stmts   []statement
	mut     *mutator
	rng     *rand.Rand
}

func newPlanner(w *workload, d *data, dataset string, seed int64, n int) *planner {
	rng := rand.New(rand.NewSource(seed))
	p := &planner{dataset: dataset, d: d, stmts: w.Statements(rng, n), rng: rng}
	if w.Mutates {
		p.mut = newMutator(d, seed)
	}
	return p
}

func (p *planner) next() (op, error) {
	o := op{Stmt: p.stmts[0]}
	p.stmts = p.stmts[1:]
	var err error
	if p.mut != nil {
		if o.Mutations, err = json.Marshal(api.MutateRequest{Mutations: p.mut.batch(p.rng)}); err != nil {
			return o, err
		}
	}
	sql := o.Stmt.sql(p.dataset)
	if o.Query, err = json.Marshal(api.QueryRequest{SQL: sql}); err != nil {
		return o, err
	}
	o.QueryTraced, err = json.Marshal(api.QueryRequest{SQL: sql, IncludeTrace: true})
	o.Rows = p.d.live
	return o, err
}

// all plans every remaining operation.
func (p *planner) all() ([]op, error) {
	ops := make([]op, 0, len(p.stmts))
	for len(p.stmts) > 0 {
		o, err := p.next()
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// Mutation batch shape: 100 mutations confined to 2 of the grp100 partitions.
const (
	batchUpserts = 70
	batchAppends = 20
	batchDeletes = 10
)

// mutator plans mutation batches against the model and applies them to it.
type mutator struct {
	d    *data
	gens []*colGen // one per column, for the values of new and replaced rows
	next int64     // next unused id
}

func newMutator(d *data, seed int64) *mutator {
	m := &mutator{d: d, next: int64(d.rows())}
	for _, c := range d.cols {
		m.gens = append(m.gens, newColGen(c.spec, seed, "mutations"))
	}
	return m
}

// batch plans one batch: two partitions are drawn, then deletes, upserts and
// appends are split between them. Within a batch no row is touched twice.
func (m *mutator) batch(rng *rand.Rand) []api.MutationSpec {
	grp := m.d.byName["grp100"]
	a := rng.Int63n(grp.spec.Card)
	b := (a + 1 + rng.Int63n(grp.spec.Card-1)) % grp.spec.Card
	var members []int
	for i, g := range grp.vals {
		if !m.d.dead[i] && (g == a || g == b) {
			members = append(members, i)
		}
	}
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	// Small verify and smoke tables have partitions below the batch size.
	nDel := min(batchDeletes, len(members)/8)
	nUp := min(batchUpserts, len(members)/2)
	var specs []api.MutationSpec
	id := m.d.byName["id"]
	for _, i := range members[:nDel] {
		m.d.dead[i] = true
		m.d.live--
		specs = append(specs, api.MutationSpec{Op: api.OpDelete, Row: map[string]string{"id": id.render(i)}})
	}
	for _, i := range members[nDel : nDel+nUp] {
		m.draw(i, id.vals[i], grp.vals[i])
		specs = append(specs, api.MutationSpec{Op: api.OpUpsert, Row: m.row(i)})
	}
	for k := 0; k < batchAppends; k++ {
		i := m.d.rows()
		for _, c := range m.d.cols {
			c.vals = append(c.vals, 0)
			if c.nulls != nil {
				c.nulls = append(c.nulls, false)
			}
		}
		m.d.dead = append(m.d.dead, false)
		m.d.live++
		m.draw(i, m.next, [2]int64{a, b}[k%2])
		m.next++
		specs = append(specs, api.MutationSpec{Op: api.OpAppend, Row: m.row(i)})
	}
	return specs
}

// draw fills model row i with fresh values, keeping the given key and
// partition.
func (m *mutator) draw(i int, id, grp int64) {
	for k, c := range m.d.cols {
		v, null := m.gens[k].next(id)
		switch c.spec.Name {
		case "id":
			v = id
		case "grp100":
			v = grp
		}
		c.vals[i] = v
		if c.nulls != nil {
			c.nulls[i] = null
		}
	}
}

func (m *mutator) row(i int) map[string]string {
	row := make(map[string]string, len(m.d.cols))
	for _, c := range m.d.cols {
		// A column absent from the map is NULL.
		if c.nulls == nil || !c.nulls[i] {
			row[c.spec.Name] = c.render(i)
		}
	}
	return row
}
