package interval

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
)

// FuzzMap applies one operation sequence to a Tree and a Map and requires
// identical contents after every step and identical results from every
// read, segment boundaries included: the checker swapped one for the
// other, and its reports depend on exactly where segments split.
//
// Each op is four bytes: kind, a 16-bit address and a length byte. The
// fill op writes up to 2 048 one-byte segments at once, so a short input
// can push the Map past maxFlat into its Tree form; the clear op returns
// it to the slice.
//
// Map's in-place edits have no Tree counterpart. The Tree runs the
// sequences they replace in the checker instead: for Update, extract the
// range, change and insert back each piece, then insert a value into each
// gap; for Retain, walk by pointer, collect the rejected ranges, then
// delete them. Both must also call back on the same ranges with the same
// values in the same order.
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 16, 0, 40, 0, 32, 0, 8, 1, 20, 0, 4, 2, 0, 0, 64})
	f.Add([]byte{4, 0, 0, 255, 0, 100, 0, 200, 2, 0, 4, 90, 5, 0, 0, 0, 3, 50, 0, 99})
	f.Add([]byte{4, 0, 0, 200, 1, 0, 2, 255, 6, 0, 0, 0, 4, 8, 0, 255, 2, 3, 0, 12})
	f.Add([]byte{0, 16, 0, 40, 0, 80, 0, 8, 7, 20, 0, 90, 7, 0, 0, 3, 8, 0, 0, 1, 7, 10, 0, 60})
	f.Add([]byte{4, 0, 0, 200, 7, 0, 1, 255, 8, 0, 0, 2, 7, 3, 0, 200, 8, 0, 0, 0, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, m := New[int](), NewMap[int]()
		for i := 0; i+4 <= len(data); i += 4 {
			lo := uint64(data[i+1]) | uint64(data[i+2])<<8
			n := uint64(data[i+3])
			hi := lo + n + 1
			switch data[i] % 9 {
			case 0:
				tr.Set(lo, hi, i)
				m.Set(lo, hi, i)
			case 1:
				tr.Delete(lo, hi)
				m.Delete(lo, hi)
			case 2:
				a, b := tr.ExtractOverlap(lo, hi), m.ExtractOverlap(lo, hi)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("op %d ExtractOverlap(%d, %d): tree %v, map %v", i/4, lo, hi, a, b)
				}
				// Put every other extracted segment back, changed.
				for k := 0; k < len(a); k += 2 {
					tr.Insert(a[k].Lo, a[k].Hi, a[k].Val+1)
					m.Insert(a[k].Lo, a[k].Hi, a[k].Val+1)
				}
			case 3:
				compareReads(t, tr, m, lo, hi)
			case 4:
				for k := uint64(0); k < 8*(n+1); k++ {
					tr.Set(lo+2*k, lo+2*k+1, i)
					m.Set(lo+2*k, lo+2*k+1, i)
				}
			case 5:
				bump := func(_, _ uint64, v *int) { *v++ }
				tr.ForEachPtr(bump)
				m.ForEachPtr(bump)
			case 6:
				tr.Clear()
				m.Clear()
			case 7:
				change := func(v int) int { return 2*v + i }
				var got []Seg[int]
				m.Update(lo, hi, func(lo, hi uint64, v *int) {
					got = append(got, Seg[int]{lo, hi, *v})
					*v = change(*v)
				})
				pieces := tr.ExtractOverlap(lo, hi)
				for _, p := range pieces {
					tr.Insert(p.Lo, p.Hi, change(p.Val))
				}
				want := pieces
				for _, g := range tr.Gaps(lo, hi) {
					tr.Insert(g.Lo, g.Hi, change(0))
					want = append(want, Seg[int]{Lo: g.Lo, Hi: g.Hi})
				}
				slices.SortFunc(want, func(a, b Seg[int]) int { return cmp.Compare(a.Lo, b.Lo) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d Update(%d, %d) called back on %v, want %v", i/4, lo, hi, got, want)
				}
			case 8:
				keep := func(lo, _ uint64, v *int) bool {
					*v += 3
					return (lo+uint64(*v))%(n%4+1) != 0
				}
				var got, want []Seg[int]
				dropped := m.Retain(func(lo, hi uint64, v *int) bool {
					got = append(got, Seg[int]{lo, hi, *v})
					return keep(lo, hi, v)
				})
				var drop []Seg[int]
				tr.ForEachPtr(func(lo, hi uint64, v *int) {
					want = append(want, Seg[int]{lo, hi, *v})
					if !keep(lo, hi, v) {
						drop = append(drop, Seg[int]{Lo: lo, Hi: hi})
					}
				})
				for _, d := range drop {
					tr.Delete(d.Lo, d.Hi)
				}
				if !reflect.DeepEqual(got, want) || dropped != len(drop) {
					t.Fatalf("op %d Retain called back on %v and dropped %d, want %v and %d",
						i/4, got, dropped, want, len(drop))
				}
			}
			if a, b := tr.All(), m.All(); tr.Len() != m.Len() || !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d (kind %d, [%d, %d)): tree %d segments, map %d; contents differ",
					i/4, data[i]%9, lo, hi, tr.Len(), m.Len())
			}
		}
	})
}

// compareReads requires the read-only methods to agree on [lo, hi).
func compareReads(t *testing.T, tr *Tree[int], m *Map[int], lo, hi uint64) {
	t.Helper()
	collect := func(visit func(uint64, uint64, func(Seg[int]) bool)) []Seg[int] {
		var out []Seg[int]
		visit(lo, hi, func(s Seg[int]) bool { out = append(out, s); return true })
		return out
	}
	if a, b := collect(tr.Visit), collect(m.Visit); !reflect.DeepEqual(a, b) {
		t.Fatalf("Visit(%d, %d): tree %v, map %v", lo, hi, a, b)
	}
	if a, b := tr.Gaps(lo, hi), m.Gaps(lo, hi); !reflect.DeepEqual(a, b) {
		t.Fatalf("Gaps(%d, %d): tree %v, map %v", lo, hi, a, b)
	}
	if a, b := tr.Covered(lo, hi), m.Covered(lo, hi); a != b {
		t.Fatalf("Covered(%d, %d): tree %v, map %v", lo, hi, a, b)
	}
	if a, b := tr.Overlaps(lo, hi), m.Overlaps(lo, hi); a != b {
		t.Fatalf("Overlaps(%d, %d): tree %v, map %v", lo, hi, a, b)
	}
}
