// Package btree implements an in-memory B+ tree with uint64 keys — the
// database index substrate for the LruIndex system (§3.2).
//
// LruIndex caches the *index* of a key (in the paper, a 48-bit memory
// address) rather than its value, so the database server can skip the index
// walk when a query arrives pre-resolved. This package is that index: values
// are uint64 payload handles (arena offsets in the kvindex server), interior
// nodes hold only keys, and Get reports how many nodes the walk touched so
// the simulator can charge realistic per-node latency.
package btree

import "fmt"

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 keys. 16 keeps trees for 10^6 keys at height 5–6, similar
// to a disk-friendly B+ tree's depth with realistic fanout.
const degree = 16

const (
	maxKeys = degree - 1
	minKeys = maxKeys / 2
)

// Tree is a B+ tree mapping uint64 keys to uint64 payload handles.
// The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
}

// node is either a leaf (children nil, vals parallel to keys) or an interior
// node (len(children) == len(keys)+1, vals nil). Leaves are linked for range
// scans.
type node struct {
	keys     []uint64
	vals     []uint64
	children []*node
	next     *node // leaf-chain link
}

func (n *node) leaf() bool { return n.children == nil }

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// BuildAscending returns the tree that Put(kv(0)), …, Put(kv(n-1)) would
// build, node for node, in one pass. kv must yield strictly ascending keys;
// BuildAscending panics otherwise.
//
// Each key is appended to the rightmost leaf, and the rightmost interior path
// is kept as a stack, so no key walks down from the root. Splits follow Put's
// rule exactly — a leaf splits 8 | 8 when its 16th key arrives, an interior
// node splits 8 keys | separator up | 7 keys — so height, walk lengths and the
// leaf chain are those of the ascending-Put tree.
//
// Nodes and their key, value and child arrays are carved from a few slabs
// (see slab) instead of being allocated one by one. Each array keeps the
// capacity a separately allocated one would have, so Put and Delete work on
// the built tree unchanged.
func BuildAscending(n int, kv func(i int) (k, v uint64)) *Tree {
	b := newBuilder(n)
	leaf := b.newLeaf()
	b.spine = append(b.spine, leaf)
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if i > 0 {
			if last := leaf.keys[len(leaf.keys)-1]; k <= last {
				panic(fmt.Sprintf("btree: BuildAscending key %d at %d is not above %d", k, i, last))
			}
		}
		leaf.keys = append(leaf.keys, k)
		leaf.vals = append(leaf.vals, v)
		if len(leaf.keys) > maxKeys {
			leaf = b.splitLeaf()
		}
	}
	return &Tree{root: b.spine[len(b.spine)-1], size: n}
}

// slabChunk caps the windows in one slab chunk: a large build makes one
// allocation per slabChunk nodes and arrays, not one per node and array.
const slabChunk = 1024

// slab carves equal windows out of chunked backing arrays.
type slab[T any] struct {
	free       []T
	win, chunk int // window length; windows per chunk
}

// take returns an empty window of capacity win. An append past win
// reallocates, as it would on an array allocated on its own, so windows
// never run into each other.
func (s *slab[T]) take() []T {
	if len(s.free) < s.win {
		s.free = make([]T, s.win*s.chunk)
	}
	w := s.free[:0:s.win]
	s.free = s.free[s.win:]
	return w
}

// builder is BuildAscending's state: the rightmost node of every level, and
// the slabs every node is carved from.
type builder struct {
	spine    []*node // spine[0] is the rightmost leaf, the last entry the root
	nodes    slab[node]
	keys     slab[uint64] // leaf and interior keys
	vals     slab[uint64]
	children slab[*node]
}

// newBuilder sizes the slabs for n keys. A split leaves 8 keys behind, so
// n keys fill at most n/8+1 leaves, and an interior split leaves 9 children
// behind, so the interior levels hold about leaves/8 nodes plus one per
// level. A small build fits one chunk per slab; a build that outgrows a
// chunk takes another.
func newBuilder(n int) *builder {
	leaves := n/(degree/2) + 1
	interiors := leaves/(degree/2) + 8
	chunk := func(want int) int { return min(want, slabChunk) }
	return &builder{
		nodes:    slab[node]{win: 1, chunk: chunk(leaves + interiors)},
		keys:     slab[uint64]{win: degree, chunk: chunk(leaves + interiors)},
		vals:     slab[uint64]{win: degree, chunk: chunk(leaves)},
		children: slab[*node]{win: degree + 1, chunk: chunk(interiors)},
	}
}

func (b *builder) newNode() *node { return &b.nodes.take()[:1][0] }

func (b *builder) newLeaf() *node {
	n := b.newNode()
	n.keys, n.vals = b.keys.take(), b.vals.take()
	return n
}

func (b *builder) newInterior() *node {
	n := b.newNode()
	n.keys, n.children = b.keys.take(), b.children.take()
	return n
}

// splitLeaf splits the overfull rightmost leaf as Put would, links the new
// right half into the chain and the spine, and returns it.
func (b *builder) splitLeaf() *node {
	l := b.spine[0]
	mid := len(l.keys) / 2
	r := b.newLeaf()
	r.keys = append(r.keys, l.keys[mid:]...)
	r.vals = append(r.vals, l.vals[mid:]...)
	l.keys, l.vals = l.keys[:mid], l.vals[:mid]
	l.next = r
	b.spine[0] = r
	b.push(1, r.keys[0], l, r)
	return r
}

// push adds separator sep and the new right sibling of left to the rightmost
// node at level, splitting upward as Put's insert does.
func (b *builder) push(level int, sep uint64, left, right *node) {
	for ; level < len(b.spine); level++ {
		p := b.spine[level]
		p.keys = append(p.keys, sep)
		p.children = append(p.children, right)
		if len(p.keys) <= maxKeys {
			return
		}
		mid := len(p.keys) / 2
		sep = p.keys[mid]
		r := b.newInterior()
		r.keys = append(r.keys, p.keys[mid+1:]...)
		r.children = append(r.children, p.children[mid+1:]...)
		p.keys, p.children = p.keys[:mid], p.children[:mid+1]
		b.spine[level] = r
		left, right = p, r
	}
	// The root split: grow a level, as Put does.
	root := b.newInterior()
	root.keys = append(root.keys, sep)
	root.children = append(root.children, left, right)
	b.spine = append(b.spine, root)
}

// search returns the index of the first key ≥ k in n.keys.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the handle stored for k and the number of nodes visited by the
// walk (the work a cached index would skip).
func (t *Tree) Get(k uint64) (val uint64, nodes int, ok bool) {
	n := t.root
	nodes = 1
	for !n.leaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			i++ // equal separator: key lives in the right subtree
		}
		n = n.children[i]
		nodes++
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i], nodes, true
	}
	return 0, nodes, false
}

// Put inserts or replaces the handle for k. It reports whether the key was
// newly inserted.
func (t *Tree) Put(k, v uint64) bool {
	inserted, splitKey, right := t.insert(t.root, k, v)
	if right != nil {
		t.root = &node{
			keys:     []uint64{splitKey},
			children: []*node{t.root, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds k below n. If n splits, it returns the separator key and the
// new right sibling.
func (t *Tree) insert(n *node, k, v uint64) (inserted bool, splitKey uint64, right *node) {
	if n.leaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = v
			return false, 0, nil
		}
		n.keys = insertAt(n.keys, i, k)
		n.vals = insertAt(n.vals, i, v)
		if len(n.keys) <= maxKeys {
			return true, 0, nil
		}
		// Split leaf: right half moves to a new node; separator is the
		// first key of the right node (B+ tree: separators duplicate leaf
		// keys).
		mid := len(n.keys) / 2
		r := &node{
			keys: append([]uint64(nil), n.keys[mid:]...),
			vals: append([]uint64(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = r
		return true, r.keys[0], r
	}

	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	inserted, sk, r := t.insert(n.children[i], k, v)
	if r != nil {
		n.keys = insertAt(n.keys, i, sk)
		n.children = insertChildAt(n.children, i+1, r)
		if len(n.keys) > maxKeys {
			// Split interior: middle key moves up.
			mid := len(n.keys) / 2
			splitKey = n.keys[mid]
			right = &node{
				keys:     append([]uint64(nil), n.keys[mid+1:]...),
				children: append([]*node(nil), n.children[mid+1:]...),
			}
			n.keys = n.keys[:mid]
			n.children = n.children[:mid+1]
			return inserted, splitKey, right
		}
	}
	return inserted, 0, nil
}

// Delete removes k. It reports whether the key was present.
func (t *Tree) Delete(k uint64) bool {
	deleted := t.delete(t.root, k)
	if deleted {
		t.size--
	}
	if !t.root.leaf() && len(t.root.keys) == 0 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (t *Tree) delete(n *node, k uint64) bool {
	if n.leaf() {
		i := search(n.keys, k)
		if i >= len(n.keys) || n.keys[i] != k {
			return false
		}
		n.keys = removeAt(n.keys, i)
		n.vals = removeAt(n.vals, i)
		return true
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	deleted := t.delete(n.children[i], k)
	if deleted && len(n.children[i].keys) < minKeys {
		t.rebalance(n, i)
	}
	return deleted
}

// rebalance fixes an underflowing child n.children[i] by borrowing from a
// sibling or merging with one.
func (t *Tree) rebalance(parent *node, i int) {
	child := parent.children[i]

	// Borrow from the left sibling.
	if i > 0 {
		left := parent.children[i-1]
		if len(left.keys) > minKeys {
			if child.leaf() {
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, left.keys[last])
				child.vals = insertAt(child.vals, 0, left.vals[last])
				left.keys = left.keys[:last]
				left.vals = left.vals[:last]
				parent.keys[i-1] = child.keys[0]
			} else {
				// Rotate through the parent separator.
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, parent.keys[i-1])
				parent.keys[i-1] = left.keys[last]
				child.children = insertChildAt(child.children, 0, left.children[last+1])
				left.keys = left.keys[:last]
				left.children = left.children[:last+1]
			}
			return
		}
	}

	// Borrow from the right sibling.
	if i < len(parent.children)-1 {
		right := parent.children[i+1]
		if len(right.keys) > minKeys {
			if child.leaf() {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = removeAt(right.keys, 0)
				right.vals = removeAt(right.vals, 0)
				parent.keys[i] = right.keys[0]
			} else {
				child.keys = append(child.keys, parent.keys[i])
				parent.keys[i] = right.keys[0]
				child.children = append(child.children, right.children[0])
				right.keys = removeAt(right.keys, 0)
				right.children = right.children[1:]
			}
			return
		}
	}

	// Merge with a sibling.
	if i > 0 {
		i-- // merge left sibling + child
	}
	left, right := parent.children[i], parent.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, parent.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.keys = removeAt(parent.keys, i)
	parent.children = append(parent.children[:i+1], parent.children[i+2:]...)
}

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false.
func (t *Tree) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	n := t.root
	for !n.leaf() {
		i := search(n.keys, lo)
		if i < len(n.keys) && n.keys[i] == lo {
			i++
		}
		n = n.children[i]
	}
	for ; n != nil; n = n.next {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
	}
}

// check validates B+ tree invariants (for tests): sorted keys, fanout
// bounds, uniform depth, leaf chain completeness.
func (t *Tree) check() error {
	depth := -1
	count := 0
	var walk func(n *node, d int, min, max uint64) error
	walk = func(n *node, d int, min, max uint64) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("unsorted keys at depth %d", d)
			}
		}
		if len(n.keys) > 0 {
			if n.keys[0] < min || n.keys[len(n.keys)-1] > max {
				return fmt.Errorf("key out of separator range at depth %d", d)
			}
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("leaf at depth %d, expected %d", d, depth)
			}
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("leaf vals/keys mismatch")
			}
			count += len(n.keys)
			if n != t.root && len(n.keys) < minKeys {
				return fmt.Errorf("leaf underflow: %d keys", len(n.keys))
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("interior fanout mismatch")
		}
		if n != t.root && len(n.keys) < minKeys {
			return fmt.Errorf("interior underflow: %d keys", len(n.keys))
		}
		for i, c := range n.children {
			childMin, childMax := min, max
			if i > 0 {
				childMin = n.keys[i-1]
			}
			if i < len(n.keys) {
				childMax = n.keys[i] - 1
			}
			if err := walk(c, d+1, childMin, childMax); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, 0, ^uint64(0)); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d keys found", t.size, count)
	}
	return nil
}

func insertAt(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertChildAt(s []*node, i int, c *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = c
	return s
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
