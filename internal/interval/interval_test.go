package interval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// rangeMap is the part of the API Tree and Map share that these tests use.
// Every test in this package runs against both types through it.
type rangeMap[V any] interface {
	Len() int
	Clear()
	Set(lo, hi uint64, v V)
	Insert(lo, hi uint64, v V)
	Delete(lo, hi uint64)
	ExtractOverlap(lo, hi uint64) []Seg[V]
	Visit(lo, hi uint64, f func(Seg[V]) bool)
	Overlaps(lo, hi uint64) bool
	Covered(lo, hi uint64) bool
	Gaps(lo, hi uint64) []Seg[struct{}]
	ForEachPtr(f func(lo, hi uint64, v *V))
	All() []Seg[V]
}

// eachImpl runs f once per implementation, as a subtest named after it.
// f receives a constructor so it can build as many maps as it needs.
func eachImpl[V any](t *testing.T, f func(t *testing.T, newMap func() rangeMap[V])) {
	impls := []struct {
		name   string
		newMap func() rangeMap[V]
	}{
		{"tree", func() rangeMap[V] { return New[V]() }},
		{"map", func() rangeMap[V] { return NewMap[V]() }},
	}
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) { f(t, im.newMap) })
	}
}

func TestEmptyTree(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		if tr.Len() != 0 {
			t.Fatalf("Len = %d, want 0", tr.Len())
		}
		if tr.Overlaps(0, 100) {
			t.Fatal("empty tree reports overlap")
		}
		if tr.Covered(5, 5) != true {
			t.Fatal("empty range should be trivially covered")
		}
		if tr.Covered(0, 1) {
			t.Fatal("empty tree cannot cover a non-empty range")
		}
		if got := tr.ExtractOverlap(0, 10); got != nil {
			t.Fatalf("ExtractOverlap on empty = %v, want nil", got)
		}
	})
}

func TestSetAndVisit(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[string]) {
		tr := newMap()
		tr.Set(10, 20, "a")
		tr.Set(30, 40, "b")
		want := []Seg[string]{{10, 20, "a"}, {30, 40, "b"}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
		var visited []Seg[string]
		tr.Visit(15, 35, func(s Seg[string]) bool { visited = append(visited, s); return true })
		wantV := []Seg[string]{{15, 20, "a"}, {30, 35, "b"}}
		if !reflect.DeepEqual(visited, wantV) {
			t.Fatalf("Visit = %v, want %v", visited, wantV)
		}
	})
}

func TestSetSplitsPartialOverlap(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[string]) {
		tr := newMap()
		tr.Set(0, 100, "old")
		tr.Set(40, 60, "new")
		want := []Seg[string]{{0, 40, "old"}, {40, 60, "new"}, {60, 100, "old"}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
	})
}

func TestSetExactReplace(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(5, 10, 1)
		tr.Set(5, 10, 2)
		want := []Seg[int]{{5, 10, 2}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
	})
}

func TestSetSwallowsManySegments(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		for i := uint64(0); i < 10; i++ {
			tr.Set(i*10, i*10+5, int(i))
		}
		tr.Set(3, 97, -1)
		// Segments [10,15) … [90,95) are swallowed; [0,3) survives as remainder.
		want := []Seg[int]{{0, 3, 0}, {3, 97, -1}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
	})
}

func TestExtractOverlapClipsAndPreservesRemainders(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[string]) {
		tr := newMap()
		tr.Set(0, 10, "a")
		tr.Set(10, 20, "b")
		tr.Set(20, 30, "c")
		got := tr.ExtractOverlap(5, 25)
		want := []Seg[string]{{5, 10, "a"}, {10, 20, "b"}, {20, 25, "c"}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractOverlap = %v, want %v", got, want)
		}
		rest := tr.All()
		wantRest := []Seg[string]{{0, 5, "a"}, {25, 30, "c"}}
		if !reflect.DeepEqual(rest, wantRest) {
			t.Fatalf("remaining = %v, want %v", rest, wantRest)
		}
	})
}

func TestExtractOverlapInsideSingleSegment(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[string]) {
		tr := newMap()
		tr.Set(0, 100, "x")
		got := tr.ExtractOverlap(40, 60)
		want := []Seg[string]{{40, 60, "x"}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractOverlap = %v, want %v", got, want)
		}
		rest := tr.All()
		wantRest := []Seg[string]{{0, 40, "x"}, {60, 100, "x"}}
		if !reflect.DeepEqual(rest, wantRest) {
			t.Fatalf("remaining = %v, want %v", rest, wantRest)
		}
	})
}

func TestDelete(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(0, 10, 1)
		tr.Delete(3, 7)
		want := []Seg[int]{{0, 3, 1}, {7, 10, 1}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
	})
}

func TestCoveredAndGaps(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(10, 20, 1)
		tr.Set(20, 30, 2)
		if !tr.Covered(12, 28) {
			t.Fatal("contiguous segments should cover inner range")
		}
		if tr.Covered(5, 15) {
			t.Fatal("range extending left of coverage reported covered")
		}
		if tr.Covered(25, 35) {
			t.Fatal("range extending right of coverage reported covered")
		}
		gaps := tr.Gaps(0, 40)
		want := []Seg[struct{}]{{0, 10, struct{}{}}, {30, 40, struct{}{}}}
		if !reflect.DeepEqual(gaps, want) {
			t.Fatalf("Gaps = %v, want %v", gaps, want)
		}
		tr2 := newMap()
		tr2.Set(10, 15, 0)
		tr2.Set(20, 25, 0)
		gaps2 := tr2.Gaps(10, 25)
		want2 := []Seg[struct{}]{{15, 20, struct{}{}}}
		if !reflect.DeepEqual(gaps2, want2) {
			t.Fatalf("Gaps = %v, want %v", gaps2, want2)
		}
	})
}

func TestForEachPtrMutation(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(0, 10, 1)
		tr.Set(10, 20, 2)
		tr.ForEachPtr(func(lo, hi uint64, v *int) { *v *= 10 })
		want := []Seg[int]{{0, 10, 10}, {10, 20, 20}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
	})
}

func TestVisitEarlyStop(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		for i := uint64(0); i < 10; i++ {
			tr.Set(i*10, i*10+10, int(i))
		}
		n := 0
		tr.Visit(0, 100, func(s Seg[int]) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("visited %d segments, want 3 (early stop)", n)
		}
	})
}

func TestInsertNonOverlapping(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Insert(50, 60, 5)
		tr.Insert(0, 10, 0)
		tr.Insert(20, 30, 2)
		want := []Seg[int]{{0, 10, 0}, {20, 30, 2}, {50, 60, 5}}
		if got := tr.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All = %v, want %v", got, want)
		}
	})
}

func TestZeroLengthOpsAreNoOps(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(5, 5, 1)
		tr.Insert(7, 7, 1)
		if tr.Len() != 0 {
			t.Fatalf("Len = %d after zero-length ops, want 0", tr.Len())
		}
		tr.Set(0, 10, 1)
		if got := tr.ExtractOverlap(4, 4); got != nil {
			t.Fatalf("zero-length ExtractOverlap = %v, want nil", got)
		}
		if tr.Len() != 1 {
			t.Fatalf("Len = %d, want 1", tr.Len())
		}
	})
}

// The randomized tests below draw ranges of 1–quickMaxLen bytes from a
// quickSpace-byte address space. That space holds several thousand
// segments, so every run pushes a Map past 2×maxFlat and through its
// promotion to a Tree; each run then clears the map and drives it again.
const (
	quickSpace  = 1 << 14
	quickMaxLen = 8
	quickOps    = 8000
)

// randomOp draws one operation: 0 Set, 1 Delete or 2 ExtractOverlap, in
// a 2:1:1 mix so the map fills up.
func randomOp(rng *rand.Rand) (kind int, lo, hi uint64) {
	lo = uint64(rng.Intn(quickSpace))
	hi = lo + uint64(rng.Intn(quickMaxLen)) + 1
	kind = rng.Intn(4)
	if kind == 3 {
		kind = 0
	}
	return kind, lo, hi
}

// model is a naive reference: one value per byte address, -1 where
// nothing is mapped.
type model []int

func newModel() model {
	m := make(model, quickSpace+quickMaxLen)
	m.set(0, uint64(len(m)), -1)
	return m
}

func (m model) set(lo, hi uint64, v int) {
	for a := lo; a < hi; a++ {
		m[a] = v
	}
}

// agrees reports whether the map holds exactly the model's bytes.
func (m model) agrees(tr rangeMap[int]) bool {
	next := uint64(0)
	ok := true
	tr.Visit(0, uint64(len(m)), func(s Seg[int]) bool {
		for ; next < s.Lo; next++ {
			if m[next] != -1 {
				ok = false
				return false
			}
		}
		for ; next < s.Hi; next++ {
			if m[next] != s.Val {
				ok = false
				return false
			}
		}
		return true
	})
	for ; ok && next < uint64(len(m)); next++ {
		ok = m[next] == -1
	}
	return ok
}

// TestQuickAgainstModel drives random Set/Delete/ExtractOverlap sequences
// and checks the map agrees with a per-byte model — the core correctness
// property the shadow memory relies on.
func TestQuickAgainstModel(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tr := newMap()
			for round := 0; round < 2; round++ {
				m := newModel()
				peak := 0
				for i := 0; i < quickOps; i++ {
					kind, lo, hi := randomOp(rng)
					switch kind {
					case 0:
						tr.Set(lo, hi, i)
						m.set(lo, hi, i)
					case 1:
						tr.Delete(lo, hi)
						m.set(lo, hi, -1)
					case 2:
						got := tr.ExtractOverlap(lo, hi)
						// Extracted segments must exactly match the model's bytes.
						for _, s := range got {
							for a := s.Lo; a < s.Hi; a++ {
								if m[a] != s.Val {
									return false
								}
							}
						}
						m.set(lo, hi, -1)
						// Re-insert to keep contents interesting.
						for _, s := range got {
							tr.Insert(s.Lo, s.Hi, s.Val)
							m.set(s.Lo, s.Hi, s.Val)
						}
					}
					peak = max(peak, tr.Len())
					if i%64 == 0 && !m.agrees(tr) {
						return false
					}
				}
				if peak <= 2*maxFlat {
					t.Errorf("seed %d round %d: peak %d segments, want > %d", seed, round, peak, 2*maxFlat)
				}
				if !m.agrees(tr) {
					return false
				}
				tr.Clear()
				if tr.Len() != 0 || tr.Overlaps(0, quickSpace+quickMaxLen) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickSegmentsSortedDisjoint asserts structural invariants under random
// operations: All() is sorted, non-overlapping, with no empty segments.
func TestQuickSegmentsSortedDisjoint(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		sortedDisjoint := func(tr rangeMap[int]) bool {
			all := tr.All()
			for j, s := range all {
				if s.Lo >= s.Hi {
					return false
				}
				if j > 0 && all[j-1].Hi > s.Lo {
					return false
				}
			}
			return tr.Len() == len(all)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tr := newMap()
			for round := 0; round < 2; round++ {
				peak := 0
				for i := 0; i < quickOps; i++ {
					kind, lo, hi := randomOp(rng)
					switch kind {
					case 0:
						tr.Set(lo, hi, i)
					case 1:
						tr.Delete(lo, hi)
					case 2:
						for _, s := range tr.ExtractOverlap(lo, hi) {
							tr.Insert(s.Lo, s.Hi, s.Val)
						}
					}
					peak = max(peak, tr.Len())
					if i%64 == 0 && !sortedDisjoint(tr) {
						return false
					}
				}
				if peak <= 2*maxFlat {
					t.Errorf("seed %d round %d: peak %d segments, want > %d", seed, round, peak, 2*maxFlat)
				}
				if !sortedDisjoint(tr) {
					return false
				}
				tr.Clear()
				if tr.Len() != 0 || len(tr.All()) != 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMapPromotesAndReturns pins Map's form changes: it becomes a Tree
// only past maxFlat segments, and Clear returns it to the slice while
// keeping the Tree for reuse.
func TestMapPromotesAndReturns(t *testing.T) {
	m := NewMap[int]()
	for i := uint64(0); i < maxFlat; i++ {
		m.Set(2*i, 2*i+1, int(i))
	}
	if m.big {
		t.Fatalf("promoted at %d segments, want only past %d", m.Len(), maxFlat)
	}
	m.Set(2*maxFlat, 2*maxFlat+1, maxFlat)
	if !m.big || m.Len() != maxFlat+1 || len(m.segs) != 0 {
		t.Fatalf("after %d segments: big=%v Len=%d flat=%d, want promoted", maxFlat+1, m.big, m.Len(), len(m.segs))
	}
	tree := m.tree
	m.Clear()
	if m.big || m.Len() != 0 || m.tree != tree {
		t.Fatalf("after Clear: big=%v Len=%d tree kept=%v, want flat, empty, tree kept", m.big, m.Len(), m.tree == tree)
	}
	m.Set(1, 2, 1)
	if want := []Seg[int]{{1, 2, 1}}; !reflect.DeepEqual(m.All(), want) || len(m.segs) != 1 {
		t.Fatalf("reuse after Clear: All = %v, flat = %d", m.All(), len(m.segs))
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*64) % (1 << 20)
		tr.Set(lo, lo+64, i)
	}
}

func BenchmarkVisit(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 1<<14; i++ {
		lo := uint64(i * 64)
		tr.Set(lo, lo+64, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*64) % (1 << 19)
		tr.Visit(lo, lo+256, func(Seg[int]) bool { return true })
	}
}

// BenchmarkFlatFrontInsert times what the root package's front-insert
// ablation times, on a Map held in its slice form at every size: Map
// itself never stays flat past maxFlat, and these numbers are why. Each
// op sets a segment in front of n-1 others and deletes it again; the
// values are as large as the checker's per-segment status.
func BenchmarkFlatFrontInsert(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var m Map[[8]uint64]
			for k := uint64(1); k < uint64(n); k++ {
				m.segs = append(m.segs, Seg[[8]uint64]{Lo: k * 64, Hi: k*64 + 32, Val: [8]uint64{k}})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.splice(0, 32, nil, false, true, [8]uint64{uint64(i)})
				m.splice(0, 32, nil, false, false, [8]uint64{})
			}
		})
	}
}
