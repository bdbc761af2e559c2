package delta

import (
	"time"

	"holistic/internal/obs"
)

// compactions counts generation swaps process-wide in obs.Default.
var compactions = obs.Default.NewCounter("windowd_delta_compactions_total",
	"Overlay-into-base compactions (frozen generation swaps).").With()

// compactThreshold returns the overlay size that triggers compaction.
func (b *Buffer) compactThreshold(s *Snapshot) int {
	if b.opt.CompactRows > 0 {
		return b.opt.CompactRows
	}
	t := s.f.table.Rows() / 8
	if t < 1024 {
		t = 1024
	}
	return t
}

// NeedsCompaction reports whether the current overlay reached the
// compaction threshold.
func (b *Buffer) NeedsCompaction() bool {
	s := b.cur.Load()
	return s.DeltaRows() >= b.compactThreshold(s)
}

// Compact folds the current overlay into a new frozen generation: the merged
// table is materialized off the write path, then swapped in with an
// epoch-gated pointer swap — if any writer advanced the epoch while the
// compactor was materializing, the swap is abandoned (the next compaction
// attempt starts over from the newer snapshot) rather than blocking writers
// for the duration of an O(n) rebuild. Returns whether a swap happened and
// the generation that became current.
func (b *Buffer) Compact() (swapped bool, gen int64, err error) {
	snap := b.cur.Load()
	if snap.Clean() {
		return false, snap.f.gen, nil
	}
	mat, err := snap.Table()
	if err != nil {
		return false, snap.f.gen, err
	}
	var newIdx map[string]loc
	if b.keyCol != "" {
		newIdx, err = buildKeyIndex(mat, b.keyCol)
		if err != nil {
			return false, snap.f.gen, err
		}
	}
	next := &Snapshot{
		f:     &frozen{table: mat, gen: snap.f.gen + 1},
		epoch: snap.epoch,
	}
	next.dirty.vals = emptyStore(mat)
	next.ghosts.vals = emptyStore(mat)

	b.mu.Lock()
	if b.cur.Load() != snap {
		// Epoch gate: a writer published a newer snapshot while we were
		// materializing; our merged table is stale.
		b.mu.Unlock()
		return false, b.cur.Load().f.gen, nil
	}
	b.cur.Store(next)
	if b.keyCol != "" {
		b.keyIdx = newIdx
	}
	b.mu.Unlock()
	compactions.Inc()
	return true, next.f.gen, nil
}

// StartCompactor runs a background loop that compacts the buffer whenever
// the overlay crosses the compaction threshold, checking every interval.
// onSwap (optional) is called after each successful swap with the old and
// new generation — windowd uses it to release the old generation's cache
// entries. The returned stop function terminates the loop and waits for it.
func (b *Buffer) StartCompactor(interval time.Duration, onSwap func(oldGen, newGen int64)) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			if !b.NeedsCompaction() {
				continue
			}
			oldGen := b.cur.Load().f.gen
			swapped, newGen, err := b.Compact()
			if err != nil || !swapped {
				continue
			}
			if onSwap != nil {
				onSwap(oldGen, newGen)
			}
		}
	}()
	var once func()
	var stopOnce bool
	once = func() {
		if stopOnce {
			return
		}
		stopOnce = true
		close(done)
		<-finished
	}
	return once
}
