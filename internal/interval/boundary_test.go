package interval

import (
	"math"
	"reflect"
	"testing"
)

// Boundary coverage: extreme addresses, adjacency, and idempotent ops.

func TestHighAddressRanges(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		hi := uint64(math.MaxUint64)
		tr.Set(hi-128, hi-64, 1)
		tr.Set(hi-64, hi, 2)
		if !tr.Covered(hi-128, hi) {
			t.Fatal("high-address coverage broken")
		}
		got := tr.ExtractOverlap(hi-96, hi-32)
		want := []Seg[int]{{hi - 96, hi - 64, 1}, {hi - 64, hi - 32, 2}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractOverlap = %v, want %v", got, want)
		}
	})
}

func TestAdjacentSegmentsStayDistinct(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(0, 10, 1)
		tr.Set(10, 20, 2) // touching, different values
		if tr.Len() != 2 {
			t.Fatalf("Len = %d, want 2 (no value merging)", tr.Len())
		}
		var hits []int
		tr.Visit(9, 11, func(s Seg[int]) bool { hits = append(hits, s.Val); return true })
		if !reflect.DeepEqual(hits, []int{1, 2}) {
			t.Fatalf("Visit across boundary = %v", hits)
		}
	})
}

func TestDeleteEverythingThenReuse(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		for i := uint64(0); i < 100; i++ {
			tr.Set(i*10, i*10+10, int(i))
		}
		tr.Delete(0, 1000)
		if tr.Len() != 0 {
			t.Fatalf("Len = %d after full delete", tr.Len())
		}
		tr.Set(5, 15, 7)
		if got := tr.All(); len(got) != 1 || got[0].Val != 7 {
			t.Fatalf("reuse failed: %v", got)
		}
	})
}

func TestClearResetsState(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[string]) {
		tr := newMap()
		tr.Set(1, 2, "x")
		tr.Clear()
		if tr.Len() != 0 || tr.Overlaps(0, 10) {
			t.Fatal("Clear incomplete")
		}
	})
}

func TestVisitOutsideContents(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		tr.Set(100, 200, 1)
		n := 0
		tr.Visit(0, 99, func(Seg[int]) bool { n++; return true })
		tr.Visit(201, 300, func(Seg[int]) bool { n++; return true })
		if n != 0 {
			t.Fatalf("Visit outside contents hit %d segments", n)
		}
	})
}

func TestGapsWholeRangeWhenEmpty(t *testing.T) {
	eachImpl(t, func(t *testing.T, newMap func() rangeMap[int]) {
		tr := newMap()
		gaps := tr.Gaps(10, 50)
		if len(gaps) != 1 || gaps[0].Lo != 10 || gaps[0].Hi != 50 {
			t.Fatalf("Gaps = %v", gaps)
		}
	})
}
