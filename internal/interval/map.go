package interval

import "slices"

// maxFlat is the segment count past which a Map moves its contents into a
// Tree. The maps the checker builds for real sections stay well below it
// (about 10 segments per C-Tree insert section, 768 for a serial epoch-GC
// stream, a few hundred per stripe of a striped one), where the slice is
// several times faster than the treap. Its weak spot is an edit in front
// of most segments, an O(n) shift: with the checker's 80-byte segments,
// inserting and deleting one segment in front of all others costs about
// 1.6× the treap's at 256 segments, 6× at 1 024 and 30× at 4 096
// (EXPERIMENTS.md, "Flat shadow memory"). Promoting past 1 024 bounds
// that worst case per op. Flushes and fences no longer pay it per
// segment (Update shifts at most once per call, Retain compacts once),
// and with them in place the serial stream at 768 segments checks 3–4×
// faster on the slice than on the treap, so a lower limit would cost
// more than it saves (EXPERIMENTS.md, "In-place shadow edits").
const maxFlat = 1024

// Map is an interval map from [lo, hi) ranges to values of type V with
// exactly Tree's semantics: the same segment boundaries, the same clipping
// and the same ascending visit order. It is built for the small maps one
// checked trace section produces. It keeps its disjoint segments in a
// sorted slice, found by binary search and edited in place, until they
// number more than maxFlat. Then it moves them into a Tree and delegates
// to it, so a section that front-loads inserts costs O(log n) per op, not
// O(n). Clear returns it to the slice and keeps the Tree, node freelist
// included, for the next time it grows.
//
// The zero value of Map is an empty, ready-to-use map. Like Tree, it is
// not safe for concurrent use, and a Visit, ForEachPtr, Update or Retain
// callback must not modify the map it walks.
type Map[V any] struct {
	// segs holds the contents while the map is flat: sorted by Lo,
	// disjoint and non-empty, so it is sorted by Hi as well.
	segs []Seg[V]
	// tree holds the contents while big is set. It outlives Clear so a
	// pooled map that promoted once reuses its nodes.
	tree *Tree[V]
	big  bool
	// buf is Update's scratch on the tree: the pieces it extracts and
	// the gaps between them. It is empty between calls and keeps its
	// capacity, so a warm map updates without allocating.
	buf []Seg[V]
}

// NewMap returns an empty interval map.
func NewMap[V any]() *Map[V] { return &Map[V]{} }

// Len returns the number of stored segments.
func (m *Map[V]) Len() int {
	if m.big {
		return m.tree.Len()
	}
	return len(m.segs)
}

// Clear removes all segments and returns the map to its flat form.
func (m *Map[V]) Clear() {
	if m.big {
		m.tree.Clear()
		m.big = false
	}
	clear(m.segs) // drop what the values referenced, as Tree's freelist does
	m.segs = m.segs[:0]
}

// search returns the index of the first segment ending after addr: the
// first one a range starting at addr can overlap.
func (m *Map[V]) search(addr uint64) int {
	i, j := 0, len(m.segs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if m.segs[h].Hi <= addr {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// splice removes every part of the flat map overlapping [lo, hi), keeping
// the remainders of partially covered segments, and puts [lo, hi) → v in
// its place when set is true. When collect is true the removed parts,
// clipped to [lo, hi), are appended to dst. It is Tree.extract plus
// Tree.insertNode in one slice edit.
func (m *Map[V]) splice(lo, hi uint64, dst []Seg[V], collect, set bool, v V) []Seg[V] {
	i := m.search(lo)
	j := i
	for j < len(m.segs) && m.segs[j].Lo < hi {
		j++
	}
	var repl [3]Seg[V]
	n := 0
	if i < j && m.segs[i].Lo < lo {
		repl[n] = Seg[V]{Lo: m.segs[i].Lo, Hi: lo, Val: m.segs[i].Val}
		n++
	}
	if set {
		repl[n] = Seg[V]{Lo: lo, Hi: hi, Val: v}
		n++
	}
	if i < j && m.segs[j-1].Hi > hi {
		repl[n] = Seg[V]{Lo: hi, Hi: m.segs[j-1].Hi, Val: m.segs[j-1].Val}
		n++
	}
	if collect {
		for _, s := range m.segs[i:j] {
			dst = append(dst, Seg[V]{Lo: maxU64(s.Lo, lo), Hi: minU64(s.Hi, hi), Val: s.Val})
		}
	}
	m.segs = slices.Replace(m.segs, i, j, repl[:n]...)
	return dst
}

// promoteIfBig moves the contents into the tree once the slice holds more
// than maxFlat segments.
func (m *Map[V]) promoteIfBig() {
	if len(m.segs) <= maxFlat {
		return
	}
	if m.tree == nil {
		m.tree = New[V]()
	}
	for _, s := range m.segs {
		m.tree.Insert(s.Lo, s.Hi, s.Val)
	}
	clear(m.segs)
	m.segs = m.segs[:0]
	m.big = true
}

// ExtractOverlap removes every part of the map overlapping [lo, hi) and
// returns the removed parts clipped to [lo, hi), in ascending order, as
// Tree.ExtractOverlap does.
func (m *Map[V]) ExtractOverlap(lo, hi uint64) []Seg[V] {
	if m.big {
		return m.tree.ExtractOverlap(lo, hi)
	}
	if lo >= hi {
		return nil
	}
	var zero V
	dst := m.splice(lo, hi, nil, true, false, zero)
	m.promoteIfBig() // cutting a segment's middle out splits it in two
	return dst
}

// Set maps [lo, hi) to v, replacing any previous contents of the range.
func (m *Map[V]) Set(lo, hi uint64, v V) {
	if m.big {
		m.tree.Set(lo, hi, v)
		return
	}
	if lo < hi {
		m.splice(lo, hi, nil, false, true, v)
		m.promoteIfBig()
	}
}

// Insert adds [lo, hi) → v without disturbing neighbours. It must not
// overlap an existing segment; use Set when replacement is intended.
func (m *Map[V]) Insert(lo, hi uint64, v V) {
	if m.big {
		m.tree.Insert(lo, hi, v)
		return
	}
	if lo < hi {
		m.segs = slices.Insert(m.segs, m.search(lo), Seg[V]{Lo: lo, Hi: hi, Val: v})
		m.promoteIfBig()
	}
}

// Delete removes [lo, hi) from the map, trimming partial overlaps.
func (m *Map[V]) Delete(lo, hi uint64) {
	if m.big {
		m.tree.Delete(lo, hi)
		return
	}
	if lo < hi {
		var zero V
		m.splice(lo, hi, nil, false, false, zero)
		m.promoteIfBig()
	}
}

// Update edits [lo, hi) in place. It first splits the segments that
// straddle lo or hi, so that every stored segment lies wholly inside or
// wholly outside the range, and stores an empty segment in each
// sub-range of [lo, hi) that nothing covered. It then calls f once for
// each segment inside the range, in ascending order, with a pointer to
// the stored value: an existing segment's value, or the zero value of a
// gap. Whatever f leaves there is what the map keeps.
//
// The boundaries come out as ExtractOverlap, then Insert of every
// extracted piece and of every gap Gaps reports, would leave them, in one
// pass: no segment moves when [lo, hi) is covered by whole segments, and
// the slice shifts once otherwise. f must not modify the map.
func (m *Map[V]) Update(lo, hi uint64, f func(lo, hi uint64, v *V)) {
	if lo >= hi {
		return
	}
	if m.big {
		m.updateTree(lo, hi, f)
		return
	}
	// Count the segments the edit adds: one per gap, and one per
	// remainder of a segment straddling lo or hi.
	i := m.search(lo)
	j, extra, next := i, 0, lo
	for ; j < len(m.segs) && m.segs[j].Lo < hi; j++ {
		if m.segs[j].Lo > next {
			extra++
		}
		next = m.segs[j].Hi
	}
	if next < hi {
		extra++
	}
	first := i // the first segment inside the range, once split
	if i < j && m.segs[i].Lo < lo {
		extra++
		first++
	}
	if i < j && m.segs[j-1].Hi > hi {
		extra++
	}
	if extra > 0 {
		m.spread(i, j, extra, lo, hi)
	}
	for k := first; k < len(m.segs) && m.segs[k].Lo < hi; k++ {
		f(m.segs[k].Lo, m.segs[k].Hi, &m.segs[k].Val)
	}
	m.promoteIfBig()
}

// spread rewrites segs[i:j], the segments overlapping [lo, hi), as the
// extra-longer run Update walks: the remainders outside the range, the
// pieces inside it and an empty segment per gap. It shifts the tail once
// and fills the run from the right, so each old segment is read before
// its slot is written.
func (m *Map[V]) spread(i, j, extra int, lo, hi uint64) {
	n := len(m.segs)
	m.segs = slices.Grow(m.segs, extra)[:n+extra]
	copy(m.segs[j+extra:], m.segs[j:n])
	w, end := j+extra, hi
	if i < j && m.segs[j-1].Hi > hi {
		w--
		m.segs[w] = Seg[V]{Lo: hi, Hi: m.segs[j-1].Hi, Val: m.segs[j-1].Val}
	}
	for r := j - 1; r >= i; r-- {
		s := m.segs[r]
		if s.Hi < end {
			w--
			m.segs[w] = Seg[V]{Lo: s.Hi, Hi: end}
		}
		end = maxU64(s.Lo, lo)
		w--
		m.segs[w] = Seg[V]{Lo: end, Hi: minU64(s.Hi, hi), Val: s.Val}
		if s.Lo < lo {
			w--
			m.segs[w] = Seg[V]{Lo: s.Lo, Hi: lo, Val: s.Val}
		}
	}
	if lo < end {
		m.segs[w-1] = Seg[V]{Lo: lo, Hi: end}
	}
}

// updateTree is Update on the promoted treap, through its extract and
// insert primitives: the pieces of [lo, hi) are extracted into buf, the
// gaps between them appended in order behind them, and every entry is
// handed to f and inserted back.
func (m *Map[V]) updateTree(lo, hi uint64, f func(lo, hi uint64, v *V)) {
	m.buf = m.tree.ExtractOverlapAppend(m.buf[:0], lo, hi)
	pieces, next := len(m.buf), lo
	for k := 0; k < pieces; k++ {
		if m.buf[k].Lo > next {
			m.buf = append(m.buf, Seg[V]{Lo: next, Hi: m.buf[k].Lo})
		}
		m.buf = append(m.buf, m.buf[k])
		next = m.buf[k].Hi
	}
	if next < hi {
		m.buf = append(m.buf, Seg[V]{Lo: next, Hi: hi})
	}
	for k := pieces; k < len(m.buf); k++ {
		p := &m.buf[k]
		f(p.Lo, p.Hi, &p.Val)
		m.tree.Insert(p.Lo, p.Hi, p.Val)
	}
	clear(m.buf) // drop what the values referenced
	m.buf = m.buf[:0]
}

// Retain calls keep for every segment in ascending order, with a pointer
// to its value that keep may modify, and removes the segments for which
// keep returns false. It returns how many it removed. The slice is
// compacted once, in the same pass; the treap drops them in one walk.
// keep must not modify the map.
func (m *Map[V]) Retain(keep func(lo, hi uint64, v *V) bool) int {
	if m.big {
		n := m.tree.Len()
		m.tree.root = m.tree.retain(m.tree.root, keep)
		return n - m.tree.Len()
	}
	w := 0
	for r := range m.segs {
		if keep(m.segs[r].Lo, m.segs[r].Hi, &m.segs[r].Val) {
			if w != r {
				m.segs[w] = m.segs[r]
			}
			w++
		}
	}
	n := len(m.segs) - w
	clear(m.segs[w:]) // drop what the removed values referenced
	m.segs = m.segs[:w]
	return n
}

// Visit calls f for every stored segment overlapping [lo, hi), clipped to
// the range, in ascending order. f returning false stops the walk.
func (m *Map[V]) Visit(lo, hi uint64, f func(Seg[V]) bool) {
	if m.big {
		m.tree.Visit(lo, hi, f)
		return
	}
	if lo >= hi {
		return
	}
	for i := m.search(lo); i < len(m.segs) && m.segs[i].Lo < hi; i++ {
		s := &m.segs[i]
		if !f(Seg[V]{Lo: maxU64(s.Lo, lo), Hi: minU64(s.Hi, hi), Val: s.Val}) {
			return
		}
	}
}

// Overlaps reports whether any stored segment overlaps [lo, hi).
func (m *Map[V]) Overlaps(lo, hi uint64) bool {
	if m.big {
		return m.tree.Overlaps(lo, hi)
	}
	i := m.search(lo)
	return lo < hi && i < len(m.segs) && m.segs[i].Lo < hi
}

// Covered reports whether [lo, hi) is entirely covered by stored segments
// (with no gaps).
func (m *Map[V]) Covered(lo, hi uint64) bool {
	if m.big {
		return m.tree.Covered(lo, hi)
	}
	if lo >= hi {
		return true
	}
	next := lo
	for i := m.search(lo); i < len(m.segs) && m.segs[i].Lo < hi; i++ {
		if m.segs[i].Lo > next {
			return false
		}
		next = m.segs[i].Hi
	}
	return next >= hi
}

// Gaps returns the sub-ranges of [lo, hi) not covered by any segment,
// in ascending order.
func (m *Map[V]) Gaps(lo, hi uint64) []Seg[struct{}] {
	if m.big {
		return m.tree.Gaps(lo, hi)
	}
	var gaps []Seg[struct{}]
	next := lo
	for i := m.search(lo); i < len(m.segs) && m.segs[i].Lo < hi; i++ {
		if m.segs[i].Lo > next {
			gaps = append(gaps, Seg[struct{}]{Lo: next, Hi: m.segs[i].Lo})
		}
		next = m.segs[i].Hi
	}
	if next < hi {
		gaps = append(gaps, Seg[struct{}]{Lo: next, Hi: hi})
	}
	return gaps
}

// ForEachPtr walks every segment in ascending order, passing a pointer to
// the stored value so callers can mutate values in place (the segment
// boundaries must not be changed).
func (m *Map[V]) ForEachPtr(f func(lo, hi uint64, v *V)) {
	if m.big {
		m.tree.ForEachPtr(f)
		return
	}
	for i := range m.segs {
		f(m.segs[i].Lo, m.segs[i].Hi, &m.segs[i].Val)
	}
}

// All returns every stored segment in ascending order.
func (m *Map[V]) All() []Seg[V] {
	if m.big {
		return m.tree.All()
	}
	return append(make([]Seg[V], 0, len(m.segs)), m.segs...)
}
