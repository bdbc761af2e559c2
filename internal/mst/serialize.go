package mst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Serialization implements §5.1's observation that merge sort trees "could
// also be spooled to disk": a built tree is a handful of flat integer
// arrays, so the on-disk format is a small header plus raw little-endian
// array dumps — loadable without rebuilding the O(n log n) construction.
//
// Format (little endian):
//
//	magic "MST2" | flags u32 (bit0: reserved for 64-bit payloads — never
//	written, rejected on read; bit1: cascading; bit2: spill-chunked)
//	n u64 | fanout u32 | sampleEvery u32 | levels u32
//	per level: payload array (4 bytes per element)
//	per level >= 1, if cascading: stride u64 + sample array (4 bytes each),
//	then the origin stripe (n bytes)
//
// A record with bit0 set is rejected with a WideRecordError, and a header
// whose fanout or sample distance Options would not accept with a plain
// error, before anything is sized from the header. The samples and origins
// of a cascading tree are not taken on trust: ReadTree replays every run's
// merge from them (verifyCascade) and rejects a record whose origins or
// samples do not reproduce the stored levels, so a tree that loads answers
// through the same exact step as a freshly built one.
//
// A spill-chunked tree (Options.SpillRows, spill.go) instead writes
//
//	magic "MST2" | flags u32 (bit2 set, others clear)
//	n u64 | chunkLen u64 | numChunks u32
//	per chunk: one full monolithic tree record (magic included)
//
// Chunks cannot nest: a chunk record with bit2 set is rejected. The top-run
// positions of a monolithic tree (Stats.PositionBytes) are derived from
// level 0 and never written.

const magic = "MST2"

const (
	flagWide uint32 = 1 << iota // reserved: 64-bit payloads
	flagCascading
	flagChunked
)

// WideRecordError reports a serialized tree record whose header carries the
// reserved 64-bit payload flag. Every tree stores 32-bit payloads, so the
// record cannot be loaded; the tree has to be rebuilt from its input.
type WideRecordError struct{ Flags uint32 }

func (e *WideRecordError) Error() string {
	return fmt.Sprintf("mst: serialized tree declares 64-bit payloads (flags %#x); only 32-bit records load", e.Flags)
}

// WriteTo serialises the tree. It returns the number of bytes written.
// A leaf-only tree (BuildLeaves) has no record form: it is as cheap to
// rebuild as to load, so WriteTo refuses it.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	if t.leafOnly {
		return 0, fmt.Errorf("mst: a leaf-only tree is not serialized; rebuild it from its keys")
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	var err error
	if t.chunks != nil {
		err = writeChunked(cw, t)
	} else {
		err = writeTree(cw, t.mono)
	}
	if err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// writeChunked serialises a spill forest: a chunk-list header followed by
// one monolithic tree record per chunk.
func writeChunked(w io.Writer, t *Tree) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	//lint:narrowconv-ok the chunk count is at most n < 2³¹
	for _, v := range []any{flagChunked, uint64(t.n), uint64(t.chunkLen), uint32(len(t.chunks))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, c := range t.chunks {
		if err := writeTree(w, c.mono); err != nil {
			return err
		}
	}
	return nil
}

// ReadTree deserialises a tree written by WriteTo. A monolithic tree's
// top-run positions (count_diff.go) are not part of the record: they are
// rebuilt from level 0, exactly as Build derives them, so a loaded tree
// answers count batches as a built one does.
func ReadTree(r io.Reader) (*Tree, error) {
	t, err := readTreeFrom(bufio.NewReader(r), true)
	if err != nil {
		return nil, err
	}
	if t.mono != nil {
		t.mono.topPos = topPositions(t.mono.levels[0])
	}
	return t, nil
}

// readTreeFrom reads one tree record; allowChunked permits the spill-forest
// form at the top level only (chunks cannot nest).
func readTreeFrom(br *bufio.Reader, allowChunked bool) (*Tree, error) {
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("mst: reading magic: %w", err)
	}
	if string(head[:]) != magic {
		return nil, fmt.Errorf("mst: bad magic %q", head[:])
	}
	var flags uint32
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("mst: reading flags: %w", err)
	}
	if flags&flagWide != 0 {
		return nil, &WideRecordError{Flags: flags}
	}
	if flags&flagChunked != 0 {
		if !allowChunked {
			return nil, fmt.Errorf("mst: nested spill-chunked tree")
		}
		return readChunked(br)
	}
	var fanout, sampleEvery, levels uint32
	var n uint64
	for _, v := range []any{&n, &fanout, &sampleEvery, &levels} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("mst: reading header: %w", err)
		}
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("mst: serialized tree claims %d elements", n)
	}
	out := &Tree{n: int(n), opt: Options{Fanout: int(fanout), SampleEvery: int(sampleEvery), NoCascading: flags&flagCascading == 0}}
	if err := out.opt.validate(); err != nil {
		return nil, fmt.Errorf("mst: implausible header: %w", err)
	}
	if levels < 1 || levels > 64 {
		return nil, fmt.Errorf("mst: implausible header (levels=%d)", levels)
	}
	tr, err := readTree(br, out.opt, int(n), int(levels), flags)
	if err != nil {
		return nil, err
	}
	out.mono = tr
	return out, nil
}

// readChunked reads the spill-forest form: chunk-list header then one
// monolithic record per chunk, validated for mutual consistency.
func readChunked(br *bufio.Reader) (*Tree, error) {
	var n, chunkLen uint64
	var numChunks uint32
	for _, v := range []any{&n, &chunkLen, &numChunks} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("mst: reading chunk header: %w", err)
		}
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("mst: serialized chunked tree claims %d elements", n)
	}
	if chunkLen < 1 || chunkLen >= n {
		return nil, fmt.Errorf("mst: implausible chunk length %d for %d elements", chunkLen, n)
	}
	if want := (n + chunkLen - 1) / chunkLen; uint64(numChunks) != want {
		return nil, fmt.Errorf("mst: chunk count %d inconsistent with n=%d chunkLen=%d", numChunks, n, chunkLen)
	}
	out := &Tree{n: int(n), chunkLen: int(chunkLen), chunks: make([]*Tree, numChunks)}
	for i := range out.chunks {
		c, err := readTreeFrom(br, false)
		if err != nil {
			return nil, fmt.Errorf("mst: reading chunk %d: %w", i, err)
		}
		want := int(chunkLen)
		if i == len(out.chunks)-1 {
			want = int(n) - i*int(chunkLen)
		}
		if c.n != want {
			return nil, fmt.Errorf("mst: chunk %d has %d elements, want %d", i, c.n, want)
		}
		out.chunks[i] = c
	}
	out.opt = out.chunks[0].opt
	out.opt.SpillRows = int(chunkLen)
	return out, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeTree(w io.Writer, t *tree) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	flags := uint32(0)
	cascading := len(t.levels) <= 1 || t.samples[len(t.samples)-1] != nil
	if cascading {
		flags |= flagCascading
	}
	//lint:narrowconv-ok Options.validate caps f and k, and the level count is log_f(n) — all far below 2³²
	for _, v := range []any{flags, uint64(t.n), uint32(t.f), uint32(t.k), uint32(len(t.levels))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, lv := range t.levels {
		if err := binary.Write(w, binary.LittleEndian, lv); err != nil {
			return err
		}
	}
	if cascading {
		for l := 1; l < len(t.levels); l++ {
			if err := binary.Write(w, binary.LittleEndian, uint64(t.stride[l])); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, t.samples[l]); err != nil {
				return err
			}
			if _, err := w.Write(t.origin[l]); err != nil {
				return err
			}
		}
	}
	return nil
}

func readTree(r io.Reader, opt Options, n, levels int, flags uint32) (*tree, error) {
	t := &tree{n: n, f: opt.Fanout, k: opt.SampleEvery}
	t.levels = make([][]int32, levels)
	t.samples = make([][]int32, levels)
	t.origin = make([][]uint8, levels)
	t.stride = make([]int, levels)
	t.effLen = make([]int, levels)
	rl := 1
	for l := 0; l < levels; l++ {
		if l > 0 {
			rl *= t.f
			if rl > n {
				rl = n
			}
		}
		t.effLen[l] = rl
		t.levels[l] = make([]int32, n)
		if err := binary.Read(r, binary.LittleEndian, t.levels[l]); err != nil {
			return nil, fmt.Errorf("mst: reading level %d: %w", l, err)
		}
	}
	// Validate the level structure implied by the header: the top level
	// must cover n and the second-from-top must not.
	if levels > 1 && t.effLen[levels-1] != n {
		return nil, fmt.Errorf("mst: level count inconsistent with n and fanout")
	}
	if flags&flagCascading != 0 {
		for l := 1; l < levels; l++ {
			var stride uint64
			if err := binary.Read(r, binary.LittleEndian, &stride); err != nil {
				return nil, fmt.Errorf("mst: reading stride %d: %w", l, err)
			}
			numRuns := (n + t.effLen[l] - 1) / t.effLen[l]
			if want := sampleStride(t.effLen[l], t.k, t.f); stride != uint64(want) {
				return nil, fmt.Errorf("mst: level %d stride %d, want %d", l, stride, want)
			}
			t.stride[l] = int(stride)
			t.samples[l] = make([]int32, numRuns*int(stride))
			if err := binary.Read(r, binary.LittleEndian, t.samples[l]); err != nil {
				return nil, fmt.Errorf("mst: reading samples %d: %w", l, err)
			}
			t.origin[l] = make([]uint8, n)
			if _, err := io.ReadFull(r, t.origin[l]); err != nil {
				return nil, fmt.Errorf("mst: reading origins %d: %w", l, err)
			}
			if err := t.verifyCascade(l); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// verifyCascade replays the merges of a deserialized level from its origin
// stripe: every output must be the next unconsumed element of the child its
// origin names, and every sample row must equal the consumed counts at its
// output position. A level that passes reproduces exactly the state the step
// reads, whatever bytes the record held.
func (t *tree) verifyCascade(level int) error {
	rl, childLen := t.effLen[level], t.effLen[level-1]
	consumed := make([]int32, t.f)
	for r, runStart := 0, 0; runStart < t.n; r, runStart = r+1, runStart+rl {
		runEnd := min(runStart+rl, t.n)
		out := t.levels[level][runStart:runEnd]
		origin := t.origin[level][runStart:runEnd]
		childData := t.levels[level-1][runStart:runEnd]
		m := (len(out) + childLen - 1) / childLen
		clear(consumed)
		for p := 0; ; p++ {
			if p%t.k == 0 {
				row := t.samples[level][r*t.stride[level]+(p/t.k)*t.f:]
				for c := 0; c < m; c++ {
					if row[c] != consumed[c] {
						return fmt.Errorf("mst: level %d run %d: sample %d of child %d is %d, the origins say %d", level, r, p/t.k, c, row[c], consumed[c])
					}
				}
			}
			if p == len(out) {
				break
			}
			c := int(origin[p])
			if c >= m {
				return fmt.Errorf("mst: level %d run %d: origin %d at output %d, run has %d children", level, r, c, p, m)
			}
			kid := childRunOf(childData, childLen, c)
			if int(consumed[c]) >= len(kid) || kid[consumed[c]] != out[p] {
				return fmt.Errorf("mst: level %d run %d: output %d is not the next element of its origin child %d", level, r, p, c)
			}
			consumed[c]++
		}
	}
	return nil
}
