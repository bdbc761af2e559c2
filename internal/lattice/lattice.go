// Package lattice is the one configuration matrix of the randomized answer
// rigs and the one runner they call. It is test support: only _test.go files
// import it (TestTestOnlyImports).
//
// A Point fixes every setting an answer must not depend on: the paper's tree
// shape — fanout f and sampling k (§6.6, Fig. 13) — and the system's shared
// plan, storage, task size (§5.5), worker cap and leaf cutoff. Points is a pairwise cover of those dimensions, not
// their product: every pair of values from two dimensions meets in at least
// one point. The data sets the structures' width class instead: the tables
// range from empty to partitions wider than mst.LeafRows.
//
// Rig.Run checks each point's answers: the first point of each tree shape
// against the oracle, every later point of that shape bit for bit against
// the first. Float fold order depends on the tree's fanout, so points of
// different shapes meet only through the oracle.
package lattice

import (
	"fmt"

	"holistic/internal/mst"
)

// Storage is where a point's table lives when it is queried.
type Storage int

// The storages.
const (
	RAM     Storage = iota // the table as drawn
	Segment                // written as segments, reopened through a column cache
	Delta                  // a delta buffer's snapshot: its view, with one structure cache across epochs
)

func (s Storage) String() string { return [...]string{"ram", "segment", "delta"}[s] }

// Point is one configuration of the evaluator. Adding a dimension is one
// field here, one column of Points and one row of dimensions.
type Point struct {
	Tree         mst.Options
	NoSharedPlan bool
	Storage      Storage
	TaskSize     int // 0: core's default
	Procs        int // the run's worker cap (parallel.ContextWithLimit)
	LeafRows     int // the kernels' leaf cutoff (mst.SetLeafRows)
}

// The tree shapes: the paper's f = k = 32, the narrowest fanout sampling
// every element, and a middle shape.
var (
	f32  = mst.Options{}
	f2k1 = mst.Options{Fanout: 2, SampleEvery: 1}
	f8k8 = mst.Options{Fanout: 8, SampleEvery: 8}
)

// dimensions lists each dimension's values, in Point's field order.
var dimensions = [...][]any{
	{f32, f2k1, f8k8},
	{false, true},
	{RAM, Segment, Delta},
	{16, 0},
	{1, 4},
	{mst.LeafRows, 0},
}

// Points is the lattice: 12 of the 144 configurations, covering every pair of
// values. Each tree shape has two RAM points, which differ in the plan, then
// one segment and one delta point; so every rig that runs RAM points checks
// its own storage bit for bit against RAM.
var Points = []Point{
	// tree   unshared  storage   task procs leaf rows
	{f32, false, RAM, 0, 1, mst.LeafRows},
	{f32, true, RAM, 16, 4, 0},
	{f32, false, Segment, 16, 1, 0},
	{f32, true, Delta, 0, 4, mst.LeafRows},
	{f2k1, false, RAM, 16, 4, mst.LeafRows},
	{f2k1, true, RAM, 0, 1, 0},
	{f2k1, true, Segment, 16, 1, mst.LeafRows},
	{f2k1, false, Delta, 0, 4, 0},
	{f8k8, false, RAM, 0, 4, 0},
	{f8k8, true, RAM, 16, 1, mst.LeafRows},
	{f8k8, false, Segment, 0, 4, mst.LeafRows},
	{f8k8, true, Delta, 16, 1, 0},
}

// String names the point in failure messages; 0 is the default fanout,
// sampling and task size.
func (p Point) String() string {
	return fmt.Sprintf("{f=%d k=%d no-shared-plan=%v %v task-size=%d procs=%d leaf-rows=%d}", p.Tree.Fanout,
		p.Tree.SampleEvery, p.NoSharedPlan, p.Storage, p.TaskSize, p.Procs, p.LeafRows)
}
