package treecache_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"holistic/internal/core"
	"holistic/internal/treecache"
)

func TestGetOrBuildHitAndMiss(t *testing.T) {
	c := treecache.New(1 << 20)
	builds := 0
	build := func() (any, int64, error) {
		builds++
		return "value", 8, nil
	}
	for i := 0; i < 3; i++ {
		v, err := c.GetOrBuild("k", build)
		if err != nil || v != "value" {
			t.Fatalf("GetOrBuild #%d = (%v, %v)", i, v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Entries != 1 || s.Bytes != charged("k", 8) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSingleFlightDeduplicatesConcurrentBuilds(t *testing.T) {
	c := treecache.New(1 << 20)
	var builds atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrBuild("shared", func() (any, int64, error) {
				builds.Add(1)
				<-gate // hold the build open until every worker has arrived
				return 42, 8, nil
			})
			if err != nil {
				t.Errorf("GetOrBuild: %v", err)
			}
			results[w] = v
		}()
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds for %d concurrent callers, want 1", got, workers)
	}
	for w, v := range results {
		if v != 42 {
			t.Fatalf("worker %d got %v", w, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Joins != workers-1 {
		t.Fatalf("hits (%d) + joins (%d) != %d", s.Hits, s.Joins, workers-1)
	}
}

func TestFollowerRetriesAfterLeaderFailure(t *testing.T) {
	c := treecache.New(1 << 20)
	leaderStarted := make(chan struct{})
	leaderRelease := make(chan struct{})
	errLeader := errors.New("leader cancelled")

	var followerV any
	var followerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-leaderStarted
		// Let the leader's build fail; whether this call joins the flight
		// (and retries) or arrives after it was torn down, it must build a
		// fresh value rather than inherit the leader's error.
		close(leaderRelease)
		followerV, followerErr = c.GetOrBuild("k", func() (any, int64, error) {
			return "rebuilt", 8, nil
		})
	}()

	v, err := c.GetOrBuild("k", func() (any, int64, error) {
		close(leaderStarted)
		<-leaderRelease
		return nil, 0, errLeader
	})
	if !errors.Is(err, errLeader) || v != nil {
		t.Fatalf("leader got (%v, %v)", v, err)
	}
	<-done
	if followerErr != nil || followerV != "rebuilt" {
		t.Fatalf("follower got (%v, %v), want rebuilt value", followerV, followerErr)
	}
	if s := c.Stats(); s.Failures != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// charged is what an entry costs the budget: the size its build reported,
// its key and the fixed per-entry overhead.
func charged(key string, bytes int64) int64 {
	return bytes + int64(len(key)) + treecache.EntryOverhead
}

// TestEntryChargeIncludesKeyAndOverhead pins the accounting rule: a cache
// of many small entries is charged for its keys and bookkeeping, not only
// for what the builds report.
func TestEntryChargeIncludesKeyAndOverhead(t *testing.T) {
	c := treecache.New(0)
	want := int64(0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("scope|p=\"grp\",;o=\"ts\"+,|pk=i%d;|pd0|result|sum(distinct)", i)
		if _, err := c.GetOrBuild(key, func() (any, int64, error) { return i, 162, nil }); err != nil {
			t.Fatal(err)
		}
		want += 162 + int64(len(key)) + treecache.EntryOverhead
	}
	if s := c.Stats(); s.Bytes != want || s.Bytes < 2*100*162 {
		t.Fatalf("100 entries of 162 reported bytes charged %d, want %d (keys and overhead included)", s.Bytes, want)
	}
	c.Invalidate(func(string) bool { return true })
	if s := c.Stats(); s.Bytes != 0 {
		t.Fatalf("%d bytes charged after invalidating every entry", s.Bytes)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := treecache.New(2*charged("a", 40) + 20) // room for two entries, not three
	add := func(key string, bytes int64) {
		if _, err := c.GetOrBuild(key, func() (any, int64, error) { return key, bytes, nil }); err != nil {
			t.Fatal(err)
		}
	}
	add("a", 40)
	add("b", 40)
	// Touch "a" so "b" is the LRU victim.
	if _, err := c.GetOrBuild("a", func() (any, int64, error) { t.Fatal("a must be cached"); return nil, 0, nil }); err != nil {
		t.Fatal(err)
	}
	add("c", 40) // exceeds the budget -> evict b
	s := c.Stats()
	if s.Entries != 2 || s.Bytes != 2*charged("a", 40) || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	rebuilt := false
	if _, err := c.GetOrBuild("b", func() (any, int64, error) { rebuilt = true; return "b", 40, nil }); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("evicted entry b still served from cache")
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := treecache.New(100)
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrBuild("huge", func() (any, int64, error) { return "x", 1000, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversized entry was cached: %+v", s)
	}
	if s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (no caching)", s.Misses)
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	c := treecache.New(0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := c.GetOrBuild(key, func() (any, int64, error) { return i, 1 << 20, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries != 100 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReplaceExistingKeyAdjustsBytes(t *testing.T) {
	c := treecache.New(1 << 20)
	if _, err := c.GetOrBuild("k", func() (any, int64, error) { return 1, 100, nil }); err != nil {
		t.Fatal(err)
	}
	// Forcing a rebuild through failure-retry path would complicate things;
	// exercise insertLocked replacement via invalidate + rebuild instead.
	c.Invalidate(func(key string) bool { return key == "k" })
	if _, err := c.GetOrBuild("k", func() (any, int64, error) { return 2, 60, nil }); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Bytes != charged("k", 60) || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// invalidateCase fills an unlimited cache with keys, drops what match
// picks, and checks that exactly the kept keys survive: every other key is
// rebuilt on its next GetOrBuild.
func invalidateCase(t *testing.T, keys []string, match func(key string) bool, removed int, kept []string) {
	t.Helper()
	cache := treecache.New(0) // unlimited
	for _, key := range keys {
		if _, err := cache.GetOrBuild(key, func() (any, int64, error) { return key, 8, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.Invalidate(match); n != removed {
		t.Fatalf("Invalidate removed %d, want %d", n, removed)
	}
	if s := cache.Stats(); s.Entries != len(kept) || s.Invalidations != int64(removed) {
		t.Fatalf("stats = %+v", s)
	}
	for _, key := range keys {
		rebuilt := false
		if _, err := cache.GetOrBuild(key, func() (any, int64, error) { rebuilt = true; return nil, 8, nil }); err != nil {
			t.Fatal(err)
		}
		if want := !slices.Contains(kept, key); rebuilt != want {
			t.Fatalf("entry %q rebuilt = %v, want %v", key, rebuilt, want)
		}
	}
}

// TestInvalidatePrefix drops a dataset reload's whole scope through
// Invalidate(core.InScope) and leaves other scopes alone.
func TestInvalidatePrefix(t *testing.T) {
	invalidateCase(t,
		[]string{"ds@1|entry0", "ds@1|entry1", "ds@1|entry2", "ds@1|entry3", "ds@1|entry4", "other@1|x"},
		core.InScope("ds@1"), 5,
		[]string{"other@1|x"})
}

// TestInvalidateGeneration drops a compaction's folded generation through
// Invalidate(core.InScope): its sort and partition keys go, while a
// generation whose number extends the folded one's, a later generation and
// other scopes all survive.
func TestInvalidateGeneration(t *testing.T) {
	invalidateCase(t,
		[]string{
			"ds@1|g2|sort|p=;o=",
			"ds@1|g2|sort|p=;o=|pk=i7;|pd3|x",
			"ds@1|g23|sort|p=;o=",
			"ds@1|g3|sort|p=;o=",
			"other@1|g2|sort|p=;o=",
		},
		core.InScope("ds@1|g2"), 2,
		[]string{"ds@1|g23|sort|p=;o=", "ds@1|g3|sort|p=;o=", "other@1|g2|sort|p=;o="})
}
