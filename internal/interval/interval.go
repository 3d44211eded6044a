// Package interval provides ordered maps from half-open address ranges
// [lo, hi) to values, in two forms with identical semantics.
//
// Both maintain the invariant that stored segments never overlap.
// Mutating a sub-range splits any partially covered segments, preserving
// their values on the uncovered remainders; adjacent segments are never
// merged.
//
// Tree is a randomized balanced tree (treap): every operation costs
// O(log n + k) for n stored segments and k touched segments. Map keeps
// its segments in a sorted slice while it holds at most 1 024 of them
// and becomes a Tree past that, so small maps get binary search over
// contiguous memory and large ones keep the treap's bound. The checker's
// shadow memory (paper §4.4) is a Map: one checked trace section rarely
// holds more than a few hundred segments. internal/pmdk, part of the
// simulated program under test, keeps using Tree, so a change to the
// checker's maps leaves the uninstrumented program's speed alone.
//
// Map also edits in place. Update hands every piece of a range, gaps
// included, to a callback through a pointer to the stored value, and
// Retain filters all segments in one compacting pass. The checker's
// flushes and fences are built on them, so neither extracts and
// re-inserts segments nor deletes them one at a time.
//
// The zero values of Tree and Map are empty, ready-to-use maps.
package interval

// Seg is one stored segment: the half-open range [Lo, Hi) and its value.
type Seg[V any] struct {
	Lo, Hi uint64
	Val    V
}

// Len reports the length of the segment in bytes.
func (s Seg[V]) Len() uint64 { return s.Hi - s.Lo }

type node[V any] struct {
	lo, hi uint64
	val    V
	pri    uint32
	left   *node[V]
	right  *node[V]
	count  int
}

// Tree is an interval map from [lo, hi) ranges to values of type V.
// It is not safe for concurrent use; the checking engine gives each trace
// its own shadow memory, so no locking is needed (paper §4.4).
type Tree[V any] struct {
	root *node[V]
	rng  uint64
	// free is a chain of recycled nodes (linked through left). Extraction
	// and Clear push removed nodes here; newNode pops before allocating,
	// so steady-state mutation of a long-lived tree is allocation-free.
	free *node[V]
}

// New returns an empty interval tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

func (t *Tree[V]) nextPri() uint32 {
	// xorshift64*; seeded lazily so the zero value works.
	if t.rng == 0 {
		t.rng = 0x9E3779B97F4A7C15
	}
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return uint32((x * 0x2545F4914F6CDD1D) >> 32)
}

// newNode returns a node for [lo, hi) → v, reusing a recycled one when
// available.
func (t *Tree[V]) newNode(lo, hi uint64, v V) *node[V] {
	if n := t.free; n != nil {
		t.free = n.left
		n.lo, n.hi, n.val = lo, hi, v
		n.pri = t.nextPri()
		n.left, n.right = nil, nil
		n.count = 1
		return n
	}
	return &node[V]{lo: lo, hi: hi, val: v, pri: t.nextPri(), count: 1}
}

// recycle pushes one node onto the freelist, zeroing its value so the
// freelist does not retain anything the value referenced.
func (t *Tree[V]) recycle(n *node[V]) {
	var zero V
	n.val = zero
	n.right = nil
	n.left = t.free
	t.free = n
}

// recycleAll recycles an entire subtree.
func (t *Tree[V]) recycleAll(n *node[V]) {
	if n == nil {
		return
	}
	t.recycleAll(n.left)
	t.recycleAll(n.right)
	t.recycle(n)
}

func count[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.count
}

func (n *node[V]) update() *node[V] {
	n.count = 1 + count(n.left) + count(n.right)
	return n
}

// split partitions n into (a, b) where a holds every segment with lo < key
// and b holds the rest. Segments are never cut by split; callers clip
// boundary-crossing segments before splitting.
func split[V any](n *node[V], key uint64) (a, b *node[V]) {
	if n == nil {
		return nil, nil
	}
	if n.lo < key {
		n.right, b = split(n.right, key)
		return n.update(), b
	}
	a, n.left = split(n.left, key)
	return a, n.update()
}

func merge[V any](a, b *node[V]) *node[V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.pri > b.pri:
		a.right = merge(a.right, b)
		return a.update()
	default:
		b.left = merge(a, b.left)
		return b.update()
	}
}

// Len returns the number of stored segments.
func (t *Tree[V]) Len() int { return count(t.root) }

// Clear removes all segments, recycling their nodes for reuse.
func (t *Tree[V]) Clear() {
	t.recycleAll(t.root)
	t.root = nil
}

// insertNode adds a segment that is known not to overlap anything stored.
func (t *Tree[V]) insertNode(lo, hi uint64, v V) {
	if lo >= hi {
		return
	}
	n := t.newNode(lo, hi, v)
	a, b := split(t.root, lo)
	t.root = merge(merge(a, n), b)
}

// ExtractOverlap removes every part of the tree overlapping [lo, hi) and
// returns the removed parts clipped to [lo, hi), in ascending order.
// Partially covered segments keep their value on the remainder outside the
// range. Extracting a sub-range, transforming the segments and inserting
// them back is a read-modify-write of the range; Map.Update does that in
// place, and on a promoted Map it runs through this and Insert.
func (t *Tree[V]) ExtractOverlap(lo, hi uint64) []Seg[V] {
	return t.extract(lo, hi, nil, true)
}

// ExtractOverlapAppend is ExtractOverlap appending into dst, so callers
// on the checking hot path can reuse a scratch buffer across calls.
func (t *Tree[V]) ExtractOverlapAppend(dst []Seg[V], lo, hi uint64) []Seg[V] {
	return t.extract(lo, hi, dst, true)
}

// extract implements ExtractOverlap; when collect is false the removed
// segments are recycled without being copied out, which keeps Set and
// Delete allocation-free.
func (t *Tree[V]) extract(lo, hi uint64, dst []Seg[V], collect bool) []Seg[V] {
	if lo >= hi || t.root == nil {
		return dst
	}
	// Step 1: everything strictly left of lo, except a segment that begins
	// before lo may spill into [lo, hi).
	left, rest := split(t.root, lo)
	// The only candidate that can spill over is the maximum of left.
	var spill *node[V]
	if left != nil {
		var max *node[V]
		left, max = popMax(left)
		if max.hi > lo {
			spill = max
		} else {
			left = merge(left, max)
		}
	}
	mid, right := split(rest, hi)

	if spill != nil {
		end := spill.hi
		if end > hi {
			end = hi
			// Keep [hi, spill.hi) on the right.
			rightPart := t.newNode(hi, spill.hi, spill.val)
			a, b := split(right, hi)
			right = merge(merge(a, rightPart), b)
		}
		if collect {
			dst = append(dst, Seg[V]{Lo: lo, Hi: end, Val: spill.val})
		}
		// Reuse the spill node for its remainder [spill.lo, lo) on the left.
		spill.hi = lo
		spill.left, spill.right = nil, nil
		spill.count = 1
		left = merge(left, spill)
	}
	// Step 2: segments starting in [lo, hi); only the max can extend past hi.
	if mid != nil {
		var max *node[V]
		mid, max = popMax(mid)
		if max.hi > hi {
			rightPart := t.newNode(hi, max.hi, max.val)
			a, b := split(right, hi)
			right = merge(merge(a, rightPart), b)
			max.hi = hi
		}
		mid = merge(mid, max.update())
		if collect {
			inorder(mid, func(n *node[V]) { dst = append(dst, Seg[V]{Lo: n.lo, Hi: n.hi, Val: n.val}) })
		}
		t.recycleAll(mid)
	}
	t.root = merge(left, right)
	// dst may have the spill first then mid segments — already in
	// ascending order because spill starts exactly at lo and mid segments
	// start at or after lo and do not overlap the spill.
	return dst
}

func popMax[V any](n *node[V]) (rest, max *node[V]) {
	if n.right == nil {
		rest = n.left
		n.left = nil
		n.count = 1
		return rest, n
	}
	n.right, max = popMax(n.right)
	return n.update(), max
}

func inorder[V any](n *node[V], f func(*node[V])) {
	if n == nil {
		return
	}
	inorder(n.left, f)
	f(n)
	inorder(n.right, f)
}

// Set maps [lo, hi) to v, replacing any previous contents of the range.
func (t *Tree[V]) Set(lo, hi uint64, v V) {
	if lo >= hi {
		return
	}
	t.extract(lo, hi, nil, false)
	t.insertNode(lo, hi, v)
}

// Insert adds [lo, hi) → v without disturbing neighbours. It must not
// overlap an existing segment; use Set when replacement is intended.
func (t *Tree[V]) Insert(lo, hi uint64, v V) { t.insertNode(lo, hi, v) }

// Delete removes [lo, hi) from the map, trimming partial overlaps.
func (t *Tree[V]) Delete(lo, hi uint64) { t.extract(lo, hi, nil, false) }

// Visit calls f for every stored segment overlapping [lo, hi), clipped to
// the range, in ascending order. f returning false stops the walk.
func (t *Tree[V]) Visit(lo, hi uint64, f func(Seg[V]) bool) {
	visit(t.root, lo, hi, f)
}

func visit[V any](n *node[V], lo, hi uint64, f func(Seg[V]) bool) bool {
	if n == nil || lo >= hi {
		return true
	}
	// Segments are disjoint, so every segment in n's left subtree ends at
	// or before n.lo: it can overlap [lo, hi) only when n starts after lo.
	// Pruning on that keeps the walk at O(log n + k) instead of visiting
	// every segment that starts below hi.
	if n.lo < hi {
		if n.lo > lo && !visit(n.left, lo, hi, f) {
			return false
		}
		if n.hi > lo {
			s := Seg[V]{Lo: maxU64(n.lo, lo), Hi: minU64(n.hi, hi), Val: n.val}
			if s.Lo < s.Hi && !f(s) {
				return false
			}
		}
		return visit(n.right, lo, hi, f)
	}
	return visit(n.left, lo, hi, f)
}

// Overlaps reports whether any stored segment overlaps [lo, hi).
func (t *Tree[V]) Overlaps(lo, hi uint64) bool {
	found := false
	t.Visit(lo, hi, func(Seg[V]) bool { found = true; return false })
	return found
}

// Covered reports whether [lo, hi) is entirely covered by stored segments
// (with no gaps).
func (t *Tree[V]) Covered(lo, hi uint64) bool {
	if lo >= hi {
		return true
	}
	next := lo
	ok := true
	t.Visit(lo, hi, func(s Seg[V]) bool {
		if s.Lo > next {
			ok = false
			return false
		}
		next = s.Hi
		return true
	})
	return ok && next >= hi
}

// Gaps returns the sub-ranges of [lo, hi) not covered by any segment,
// in ascending order.
func (t *Tree[V]) Gaps(lo, hi uint64) []Seg[struct{}] {
	var gaps []Seg[struct{}]
	next := lo
	t.Visit(lo, hi, func(s Seg[V]) bool {
		if s.Lo > next {
			gaps = append(gaps, Seg[struct{}]{Lo: next, Hi: s.Lo})
		}
		next = s.Hi
		return true
	})
	if next < hi {
		gaps = append(gaps, Seg[struct{}]{Lo: next, Hi: hi})
	}
	return gaps
}

// ForEachPtr walks every segment in ascending order, passing a pointer to
// the stored value so callers can mutate values in place (the segment
// boundaries must not be changed). Used by fence handling, which closes
// every open interval in one pass.
func (t *Tree[V]) ForEachPtr(f func(lo, hi uint64, v *V)) {
	inorder(t.root, func(n *node[V]) { f(n.lo, n.hi, &n.val) })
}

// retain is Map.Retain on the subtree rooted at n: it calls keep for
// every node in ascending order, recycles the rejected ones and returns
// the new root. A kept node outranks every node left below it, so
// merging the survivors around each removal keeps the heap order.
func (t *Tree[V]) retain(n *node[V], keep func(lo, hi uint64, v *V) bool) *node[V] {
	if n == nil {
		return nil
	}
	l := t.retain(n.left, keep)
	ok := keep(n.lo, n.hi, &n.val)
	r := t.retain(n.right, keep)
	if !ok {
		t.recycle(n)
		return merge(l, r)
	}
	n.left, n.right = l, r
	return n.update()
}

// All returns every stored segment in ascending order.
func (t *Tree[V]) All() []Seg[V] {
	out := make([]Seg[V], 0, t.Len())
	inorder(t.root, func(n *node[V]) {
		out = append(out, Seg[V]{Lo: n.lo, Hi: n.hi, Val: n.val})
	})
	return out
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
