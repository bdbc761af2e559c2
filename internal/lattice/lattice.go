// Package lattice is the one configuration matrix of the randomized answer
// rigs and the one runner they call. It is test support: only _test.go files
// import it (TestTestOnlyImports).
//
// A Point fixes every setting an answer must not depend on: the system's
// shared plan, storage, task size (§5.5), worker cap and leaf cutoff. The
// tree shape is no dimension: the engine builds every tree at the paper's
// f = k = 32, and the mst and rangetree tests build the other shapes. Points
// is a pairwise cover of the dimensions, not their product: every pair of
// values from two dimensions meets in at least one point. The data sets the
// structures' width class instead: the tables range from empty to
// partitions wider than mst.LeafRows.
//
// Rig.Run checks each point's answers bit for bit (oracle.Identical): the
// first point against the oracle, every later point against the first. A
// point that keeps a cache across statements also answers a neighbour of
// each statement from the same cache, checked against the oracle.
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
	Segment                // written as segments and reopened
	Delta                  // a delta buffer's snapshot: its view, with one structure cache across epochs
)

func (s Storage) String() string { return [...]string{"ram", "segment", "delta"}[s] }

// Point is one configuration of the evaluator. Adding a dimension is one
// field here, one column of Points and one row of dimensions.
type Point struct {
	NoSharedPlan bool
	Storage      Storage
	TaskSize     int // 0: core's default
	Procs        int // the run's worker cap (parallel.ContextWithLimit)
	LeafRows     int // the kernels' leaf cutoff (mst.SetLeafRows)
}

// dimensions lists each dimension's values, in Point's field order.
var dimensions = [...][]any{
	{false, true},
	{RAM, Segment, Delta},
	{16, 0},
	{1, 4},
	{mst.LeafRows, 0},
}

// Points is the lattice: 12 of the 24 configurations, covering every pair of
// values. They come in three runs of two RAM points, which differ in the
// plan, then one segment and one delta point; so every rig that runs RAM
// points checks its own storage bit for bit against RAM, and points that
// recycle the pools run back to back.
var Points = []Point{
	// unshared storage  task procs leaf rows
	{false, RAM, 0, 1, mst.LeafRows},
	{true, RAM, 16, 4, 0},
	{false, Segment, 16, 1, 0},
	{true, Delta, 0, 4, mst.LeafRows},
	{false, RAM, 16, 4, mst.LeafRows},
	{true, RAM, 0, 1, 0},
	{true, Segment, 16, 1, mst.LeafRows},
	{false, Delta, 0, 4, 0},
	{false, RAM, 0, 4, 0},
	{true, RAM, 16, 1, mst.LeafRows},
	{false, Segment, 0, 4, mst.LeafRows},
	{true, Delta, 16, 1, 0},
}

// String names the point in failure messages; a task size of 0 is core's
// default.
func (p Point) String() string {
	return fmt.Sprintf("{no-shared-plan=%v %v task-size=%d procs=%d leaf-rows=%d}",
		p.NoSharedPlan, p.Storage, p.TaskSize, p.Procs, p.LeafRows)
}
