// Package ostree implements a counted B-tree — an order statistic tree
// (CLRS [17]) with B-tree nodes, following Tatham's "Counted B-Trees", the
// implementation the paper benchmarks as the order-statistic-tree competitor
// (§5.5, Table 1).
//
// The tree is a multiset of int64 keys supporting Insert, Delete, Kth
// (select the i-th smallest) and CountLess (rank) in O(log n). Used as the
// state of the sliding-window percentile/rank competitor: tuples entering
// the frame are inserted, tuples leaving it are deleted, and the percentile
// is a Kth query. Because that state must be rebuilt from the frame start by
// every parallel task, the competitor degrades under task-based parallelism
// — the effect §3.2 describes and Figure 11 shows.
package ostree

// minDegree is the B-tree minimum degree t: every node except the root holds
// between t-1 and 2t-1 keys. 16 gives 31-key nodes, cache-line friendly.
const minDegree = 16

const maxKeys = 2*minDegree - 1

type node struct {
	keys  []int64 // sorted; duplicates allowed
	kids  []*node // nil for leaves; otherwise len(keys)+1
	total int     // keys in this subtree
}

func (nd *node) leaf() bool { return nd.kids == nil }

// Tree is a counted B-tree multiset of int64 keys. The zero value is an
// empty tree ready for use.
type Tree struct {
	root *node
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.total
}

func newLeaf() *node {
	return &node{keys: make([]int64, 0, maxKeys)}
}

// Insert adds key to the multiset.
func (t *Tree) Insert(key int64) {
	if t.root == nil {
		t.root = newLeaf()
	}
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node{
			keys:  make([]int64, 0, maxKeys),
			kids:  append(make([]*node, 0, maxKeys+1), old),
			total: old.total,
		}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(key)
}

// splitChild splits the full child at index i, moving its median key up.
func (nd *node) splitChild(i int) {
	child := nd.kids[i]
	mid := minDegree - 1
	median := child.keys[mid]
	right := &node{keys: make([]int64, 0, maxKeys)}
	right.keys = append(right.keys, child.keys[mid+1:]...)
	if !child.leaf() {
		right.kids = append(make([]*node, 0, maxKeys+1), child.kids[mid+1:]...)
		child.kids = child.kids[:mid+1]
	}
	child.keys = child.keys[:mid]
	child.total = child.subtotal()
	right.total = right.subtotal()

	nd.keys = append(nd.keys, 0)
	copy(nd.keys[i+1:], nd.keys[i:])
	nd.keys[i] = median
	nd.kids = append(nd.kids, nil)
	copy(nd.kids[i+2:], nd.kids[i+1:])
	nd.kids[i+1] = right
}

func (nd *node) subtotal() int {
	total := len(nd.keys)
	for _, k := range nd.kids {
		total += k.total
	}
	return total
}

func (nd *node) insertNonFull(key int64) {
	nd.total++
	if nd.leaf() {
		i := upperBound(nd.keys, key)
		nd.keys = append(nd.keys, 0)
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = key
		return
	}
	i := upperBound(nd.keys, key)
	if len(nd.kids[i].keys) == maxKeys {
		nd.splitChild(i)
		if key > nd.keys[i] {
			i++
		}
	}
	nd.kids[i].insertNonFull(key)
}

// Delete removes one occurrence of key. It reports whether the key was
// present.
func (t *Tree) Delete(key int64) bool {
	if t.root == nil || !t.root.contains(key) {
		return false
	}
	t.root.delete(key)
	if len(t.root.keys) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.kids[0]
		}
	}
	return true
}

func (nd *node) contains(key int64) bool {
	for cur := nd; ; {
		i := lowerBound(cur.keys, key)
		if i < len(cur.keys) && cur.keys[i] == key {
			return true
		}
		if cur.leaf() {
			return false
		}
		cur = cur.kids[i]
	}
}

// delete removes one occurrence of key from the subtree rooted at nd. The
// caller guarantees the key is present. The walk is iterative: after every
// borrow or merge the current node is re-searched from scratch, since
// separator keys move during rebalancing.
func (nd *node) delete(key int64) {
	nd.total--
	for {
		i := lowerBound(nd.keys, key)
		if i < len(nd.keys) && nd.keys[i] == key {
			if nd.leaf() {
				nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
				return
			}
			// Internal hit: replace with the predecessor or successor from
			// a child that can spare a key, or merge the neighbours and
			// push the key down.
			if len(nd.kids[i].keys) >= minDegree {
				nd.keys[i] = nd.kids[i].deleteMax()
				return
			}
			if len(nd.kids[i+1].keys) >= minDegree {
				nd.keys[i] = nd.kids[i+1].deleteMin()
				return
			}
			nd.mergeChildren(i)
			nd = nd.kids[i]
			nd.total--
			continue
		}
		if nd.leaf() {
			// Invariant: Delete's caller contract guarantees the key is present (checked via Count by the window operator); deleting a phantom would corrupt subtree totals
			panic("ostree: delete of absent key")
		}
		if len(nd.kids[i].keys) < minDegree {
			// Rebalance before descending, then re-search this node.
			switch {
			case i > 0 && len(nd.kids[i-1].keys) >= minDegree:
				nd.rotateRight(i)
			case i < len(nd.kids)-1 && len(nd.kids[i+1].keys) >= minDegree:
				nd.rotateLeft(i)
			case i == len(nd.kids)-1:
				nd.mergeChildren(i - 1)
			default:
				nd.mergeChildren(i)
			}
			continue
		}
		nd = nd.kids[i]
		nd.total--
	}
}

// rotateRight moves the largest key of child i-1 through the separator into
// child i.
func (nd *node) rotateRight(i int) {
	left, right := nd.kids[i-1], nd.kids[i]
	right.keys = append(right.keys, 0)
	copy(right.keys[1:], right.keys)
	right.keys[0] = nd.keys[i-1]
	nd.keys[i-1] = left.keys[len(left.keys)-1]
	left.keys = left.keys[:len(left.keys)-1]
	moved := 1
	if !left.leaf() {
		kid := left.kids[len(left.kids)-1]
		left.kids = left.kids[:len(left.kids)-1]
		right.kids = append(right.kids, nil)
		copy(right.kids[1:], right.kids)
		right.kids[0] = kid
		moved += kid.total
	}
	left.total -= moved
	right.total += moved
}

// rotateLeft moves the smallest key of child i+1 through the separator into
// child i.
func (nd *node) rotateLeft(i int) {
	left, right := nd.kids[i], nd.kids[i+1]
	left.keys = append(left.keys, nd.keys[i])
	nd.keys[i] = right.keys[0]
	right.keys = append(right.keys[:0], right.keys[1:]...)
	moved := 1
	if !right.leaf() {
		kid := right.kids[0]
		right.kids = append(right.kids[:0], right.kids[1:]...)
		left.kids = append(left.kids, kid)
		moved += kid.total
	}
	left.total += moved
	right.total -= moved
}

// mergeChildren merges child i, the separator key i, and child i+1 into a
// single node at child position i.
func (nd *node) mergeChildren(i int) {
	left, right := nd.kids[i], nd.kids[i+1]
	left.keys = append(left.keys, nd.keys[i])
	left.keys = append(left.keys, right.keys...)
	if !left.leaf() {
		left.kids = append(left.kids, right.kids...)
	}
	left.total += right.total + 1
	nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
	nd.kids = append(nd.kids[:i+1], nd.kids[i+2:]...)
}

// deleteMax removes and returns the largest key of the subtree. The caller
// guarantees the subtree root can spare a key.
func (nd *node) deleteMax() int64 {
	nd.total--
	if nd.leaf() {
		k := nd.keys[len(nd.keys)-1]
		nd.keys = nd.keys[:len(nd.keys)-1]
		return k
	}
	i := len(nd.kids) - 1
	if len(nd.kids[i].keys) < minDegree {
		if len(nd.kids[i-1].keys) >= minDegree {
			nd.rotateRight(i)
		} else {
			i--
			nd.mergeChildren(i)
		}
	}
	return nd.kids[i].deleteMax()
}

// deleteMin removes and returns the smallest key of the subtree.
func (nd *node) deleteMin() int64 {
	nd.total--
	if nd.leaf() {
		k := nd.keys[0]
		nd.keys = append(nd.keys[:0], nd.keys[1:]...)
		return k
	}
	if len(nd.kids[0].keys) < minDegree {
		if len(nd.kids[1].keys) >= minDegree {
			nd.rotateLeft(0)
		} else {
			nd.mergeChildren(0)
		}
	}
	return nd.kids[0].deleteMin()
}

// Kth returns the i-th smallest key (0-based). ok is false when i is out of
// range. This is the counted-B-tree "lookup by index" that makes windowed
// percentiles a single descent.
func (t *Tree) Kth(i int) (key int64, ok bool) {
	if t.root == nil || i < 0 || i >= t.root.total {
		return 0, false
	}
	nd := t.root
	for {
		if nd.leaf() {
			return nd.keys[i], true
		}
		for c := 0; c < len(nd.kids); c++ {
			if i < nd.kids[c].total {
				nd = nd.kids[c]
				break
			}
			i -= nd.kids[c].total
			if i == 0 && c < len(nd.keys) {
				return nd.keys[c], true
			}
			i--
		}
	}
}

// CountLess returns the number of keys strictly smaller than key.
func (t *Tree) CountLess(key int64) int {
	cnt := 0
	for nd := t.root; nd != nil; {
		i := lowerBound(nd.keys, key)
		cnt += i
		if nd.leaf() {
			break
		}
		for c := 0; c < i; c++ {
			cnt += nd.kids[c].total
		}
		nd = nd.kids[i]
	}
	return cnt
}

// CountLessOrEqual returns the number of keys smaller than or equal to key.
func (t *Tree) CountLessOrEqual(key int64) int {
	cnt := 0
	for nd := t.root; nd != nil; {
		i := upperBound(nd.keys, key)
		cnt += i
		if nd.leaf() {
			break
		}
		for c := 0; c < i; c++ {
			cnt += nd.kids[c].total
		}
		nd = nd.kids[i]
	}
	return cnt
}

func lowerBound(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func upperBound(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
