package delta

import "sync/atomic"

// Stats is a point-in-time snapshot of the package-wide mutation counters
// (all Buffers in the process), mirroring ingest.Snapshot: windowd's
// windowd_delta_* metric families read it.
type Stats struct {
	Batches          int64 // successfully applied batches
	Appends          int64 // mutations by op, successful batches only
	Upserts          int64
	Deletes          int64
	Conflicts        int64 // epoch-CAS failures (the 409s)
	Compactions      int64 // successful generation swaps
	Materializations int64 // merged-table builds (lazy, once per snapshot)
}

var stats struct {
	Batches          atomic.Int64
	Appends          atomic.Int64
	Upserts          atomic.Int64
	Deletes          atomic.Int64
	Conflicts        atomic.Int64
	Compactions      atomic.Int64
	Materializations atomic.Int64
}

// Counters reads the package-wide counters.
func Counters() Stats {
	return Stats{
		Batches:          stats.Batches.Load(),
		Appends:          stats.Appends.Load(),
		Upserts:          stats.Upserts.Load(),
		Deletes:          stats.Deletes.Load(),
		Conflicts:        stats.Conflicts.Load(),
		Compactions:      stats.Compactions.Load(),
		Materializations: stats.Materializations.Load(),
	}
}
