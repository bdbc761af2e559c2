package core

import (
	"cmp"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"holistic/internal/obs"
	"holistic/internal/treecache"
)

// recordingCache is a treecache.Cache that remembers every key asked of it
// and, for each entry it built, the value and the bytes charged for it.
type recordingCache struct {
	*treecache.Cache
	mu    sync.Mutex
	keys  map[string]bool
	built map[string]recordedEntry
}

type recordedEntry struct {
	value any
	bytes int64
}

func newRecordingCache() *recordingCache {
	return &recordingCache{Cache: treecache.New(0), keys: map[string]bool{}, built: map[string]recordedEntry{}}
}

func (c *recordingCache) GetOrBuild(key string, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	c.keys[key] = true
	c.mu.Unlock()
	return c.Cache.GetOrBuild(key, func() (any, int64, error) {
		v, bytes, err := build()
		if err == nil {
			c.mu.Lock()
			c.built[key] = recordedEntry{v, bytes}
			c.mu.Unlock()
		}
		return v, bytes, err
	})
}

var errNotResident = errors.New("not resident")

// resident counts the keys asked so far that contain class and any of tags
// and that the cache still holds.
func (c *recordingCache) resident(class string, tags ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.keys {
		if !strings.Contains(k, class) || !containsAny(k, tags) {
			continue
		}
		if _, err := c.Cache.GetOrBuild(k, func() (any, int64, error) { return nil, 0, errNotResident }); err == nil {
			n++
		}
	}
	return n
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestLeafOnlyBuilds checks what the trace says about the choice: on the
// many-partitions statement with a 60-row frame, every COUNT(DISTINCT),
// int64 SUM(DISTINCT), RANK and DENSE_RANK structure is built leaf-only and
// PERCENTILE_DISC's select tree is built in full; with a 10,000-row frame
// over the same partitions, all of them more than mst.LeafRows rows, none is
// leaf-only, and COUNT(DISTINCT)'s tree — a constant-offset ROWS frame no
// wider than a probe chunk — is sliding. Each "build merge sort tree" phase
// is entered once per partition either way, names the form every entry
// took and carries the bytes the builds charged.
func TestLeafOnlyBuilds(t *testing.T) {
	parts := 2_000
	if testing.Short() {
		parts = 200
	}
	// 160 rows: even the DISTINCT trees, which drop NULL arguments, keep
	// more than mst.LeafRows.
	tab := partitionedTable(rand.New(rand.NewSource(5)), parts, func(int) int { return 160 })
	for _, c := range []struct {
		preceding int64
		form      map[string]string
	}{
		{59, map[string]string{"count(distinct)": "leaf", "sum(distinct)": "leaf", "rank": "leaf", "dense_rank": "leaf", "percentile_disc": "full"}},
		{9_999, map[string]string{"count(distinct)": "slide", "sum(distinct)": "full", "rank": "full", "dense_rank": "full", "percentile_disc": "full"}},
	} {
		w := fiveFuncWindow()
		w.Frame.Start.Offset = c.preceding
		root := tracedRun(t, tab, w, Options{})
		seen := 0
		root.Walk(func(sp *obs.Span, _ int) {
			if sp.Name() != "eval" {
				return
			}
			fn := sp.Attr("function")
			want, ok := c.form[fn]
			if !ok {
				t.Fatalf("unexpected eval span for %q", fn)
			}
			for _, ph := range sp.Children() {
				if ph.Name() != "build merge sort tree" {
					continue
				}
				seen++
				if ph.Count() != parts || ph.Attr("form") != want {
					t.Errorf("%d PRECEDING, %s: %d builds, form=%s; want %d and %s", c.preceding, fn, ph.Count(), ph.Attr("form"), parts, want)
				}
				// A leaf-only range tree owns nothing: it scans arrays its
				// cache entry holds anyway.
				owns := !(want == "leaf" && fn == "dense_rank")
				if b, err := strconv.ParseInt(ph.Attr("bytes"), 10, 64); err != nil || (b > 0) != owns {
					t.Errorf("%d PRECEDING, %s: bytes=%q, want the builds' charged bytes", c.preceding, fn, ph.Attr("bytes"))
				}
			}
		})
		if seen != len(c.form) {
			t.Errorf("%d PRECEDING: %d build phases, want one per function (%d)", c.preceding, seen, len(c.form))
		}
	}
}

// TestLeafOnlyCacheBytes is the byte accounting of the many-partitions
// statement's structures: for every entry the operator caches — leaf-only
// count, DISTINCT-sum, rank and dense-rank structures, full select trees —
// the bytes charged to the cache equal the bytes of the arrays the entry
// actually retains, each counted once: a leaf-only range tree scans arrays
// its entry already holds and must not charge them again. A few bytes of
// per-level metadata (strides, run lengths) are not charged.
func TestLeafOnlyCacheBytes(t *testing.T) {
	checkCacheBytes(t, 59, []string{"|distinct-count|", "|distinct-agg|", "|rank-", "|dense|", "|select|"},
		map[string]int{"w=leaf": 4 * 300})
}

// TestFullTreeCacheBytes is the same accounting with a 9,999-row frame, under
// which the 75 partitions of more than mst.LeafRows rows build their
// structures in full — merge levels, samples, origin stripes and, on the
// rank and select trees, the top-run positions; for DENSE_RANK the range
// tree's node array and inner trees — except COUNT(DISTINCT)'s, which is
// sliding: level 0, the top-run positions and the threshold rank table. The
// bytes charged for every structure must still equal the bytes it retains.
func TestFullTreeCacheBytes(t *testing.T) {
	checkCacheBytes(t, 9_999, []string{"|distinct-count|", "|distinct-agg|", "|rank-", "|dense|", "|select|"},
		map[string]int{"w=leaf": 4 * 225, "w=slide": 75, "w=full": 3 * 75})
}

// checkCacheBytes runs the many-partitions statement with a preceding-row
// frame over 300 partitions, a quarter of them wider than mst.LeafRows, and
// compares the charged bytes of every entry whose key carries one of tags
// with the bytes it retains. classes is how many of the count, DISTINCT-sum,
// rank and dense-rank entries must fall in each width class (w=leaf,
// w=slide, w=full).
func checkCacheBytes(t *testing.T, preceding int64, tags []string, classes map[string]int) {
	t.Helper()
	tab := partitionedTable(rand.New(rand.NewSource(9)), 300, func(p int) int {
		if p%4 == 0 {
			return 150 + p%100
		}
		return 1 + p%120
	})
	w := fiveFuncWindow()
	w.Frame.Start.Offset = preceding
	cache := newRecordingCache()
	if _, err := Run(tab, w, Options{Cache: cache, CacheScope: "bytes@v1"}); err != nil {
		t.Fatal(err)
	}
	const slack = 64
	checked := 0
	got := map[string]int{}
	for key, e := range cache.built {
		if !containsAny(key, tags) {
			continue
		}
		checked++
		if !strings.Contains(key, "|select|") {
			for _, class := range []string{"w=leaf", "w=slide", "w=full"} {
				if strings.Contains(key, class) {
					got[class]++
				}
			}
		}
		if got := retainedBytes(e.value); got < e.bytes || got > e.bytes+slack {
			t.Errorf("%s: charged %d bytes, retains %d", key, e.bytes, got)
		}
	}
	if checked != len(tags)*300 || !maps.Equal(got, classes) {
		t.Errorf("checked %d structures, width classes %v, want %d and %v", checked, got, len(tags)*300, classes)
	}
}

// retainedBytes sums the bytes of the arrays of scalars and of structs
// reachable from v: what a value keeps alive beyond headers. Memory is counted
// once however many slices view it, so a window into an array already
// reached adds nothing.
func retainedBytes(v any) int64 {
	seen := map[uintptr]bool{}
	type span struct{ lo, hi uintptr }
	var spans []span
	var walk func(rv reflect.Value)
	walk = func(rv reflect.Value) {
		switch rv.Kind() {
		case reflect.Pointer:
			if rv.IsNil() || seen[rv.Pointer()] {
				return
			}
			seen[rv.Pointer()] = true
			walk(rv.Elem())
		case reflect.Interface:
			if !rv.IsNil() {
				walk(rv.Elem())
			}
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				walk(rv.Field(i))
			}
		case reflect.Slice:
			if rv.Len() == 0 || seen[rv.Pointer()] {
				return
			}
			seen[rv.Pointer()] = true
			el := rv.Type().Elem()
			switch el.Kind() {
			case reflect.Slice, reflect.Pointer, reflect.Interface:
			default:
				spans = append(spans, span{rv.Pointer(), rv.Pointer() + uintptr(rv.Len())*el.Size()})
			}
			if el.Kind() != reflect.Struct && el.Kind() != reflect.Slice && el.Kind() != reflect.Pointer {
				return
			}
			for i := 0; i < rv.Len(); i++ {
				walk(rv.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(v))
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	var total int64
	var end uintptr
	for _, s := range spans {
		if s.lo < end {
			s.lo = min(end, s.hi)
		}
		total += int64(s.hi - s.lo)
		end = max(end, s.hi)
	}
	return total
}
