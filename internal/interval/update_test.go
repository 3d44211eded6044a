package interval

import (
	"reflect"
	"testing"
)

// eachForm runs f once per form of Map, as a subtest named after it:
// "flat", a new map, and "promoted", a map pushed past maxFlat and then
// emptied by Delete, so that it works on its Tree. newMap builds an
// empty map of the subtest's form.
func eachForm[V any](t *testing.T, f func(t *testing.T, newMap func() *Map[V])) {
	for _, big := range []bool{false, true} {
		name := "flat"
		if big {
			name = "promoted"
		}
		t.Run(name, func(t *testing.T) {
			f(t, func() *Map[V] {
				m := NewMap[V]()
				if big {
					const base = 1 << 40
					var zero V
					for k := uint64(0); k <= maxFlat; k++ {
						m.Insert(base+2*k, base+2*k+1, zero)
					}
					m.Delete(base, base+2*maxFlat+2)
				}
				if m.big != big || m.Len() != 0 {
					t.Fatalf("new %s map: big=%v Len=%d", name, m.big, m.Len())
				}
				return m
			})
		})
	}
}

// TestMapUpdate pins Update's split, fill and call-back rules. Each
// call back marks the value it edited with a trailing "'", so the
// resulting contents show which pieces it reached.
func TestMapUpdate(t *testing.T) {
	cases := []struct {
		name   string
		before []Seg[string]
		lo, hi uint64
		calls  []Seg[string] // ranges and values f saw, in call order
		after  []Seg[string]
	}{
		{
			name:   "splits at both ends",
			before: []Seg[string]{{0, 10, "a"}, {10, 20, "b"}, {20, 30, "c"}},
			lo:     5, hi: 25,
			calls: []Seg[string]{{5, 10, "a"}, {10, 20, "b"}, {20, 25, "c"}},
			after: []Seg[string]{{0, 5, "a"}, {5, 10, "a'"}, {10, 20, "b'"}, {20, 25, "c'"}, {25, 30, "c"}},
		},
		{
			name:   "inside one segment",
			before: []Seg[string]{{0, 100, "x"}},
			lo:     40, hi: 60,
			calls: []Seg[string]{{40, 60, "x"}},
			after: []Seg[string]{{0, 40, "x"}, {40, 60, "x'"}, {60, 100, "x"}},
		},
		{
			name:   "whole segments only",
			before: []Seg[string]{{0, 10, "a"}, {10, 20, "b"}, {20, 30, "c"}},
			lo:     10, hi: 20,
			calls: []Seg[string]{{10, 20, "b"}},
			after: []Seg[string]{{0, 10, "a"}, {10, 20, "b'"}, {20, 30, "c"}},
		},
		{
			name:   "segments with gaps",
			before: []Seg[string]{{10, 20, "a"}, {30, 40, "b"}, {60, 70, "c"}},
			lo:     0, hi: 50,
			calls: []Seg[string]{{0, 10, ""}, {10, 20, "a"}, {20, 30, ""}, {30, 40, "b"}, {40, 50, ""}},
			after: []Seg[string]{{0, 10, "'"}, {10, 20, "a'"}, {20, 30, "'"}, {30, 40, "b'"}, {40, 50, "'"},
				{60, 70, "c"}},
		},
		{
			name:   "gaps and splits",
			before: []Seg[string]{{0, 10, "a"}, {20, 30, "b"}},
			lo:     5, hi: 25,
			calls: []Seg[string]{{5, 10, "a"}, {10, 20, ""}, {20, 25, "b"}},
			after: []Seg[string]{{0, 5, "a"}, {5, 10, "a'"}, {10, 20, "'"}, {20, 25, "b'"}, {25, 30, "b"}},
		},
		{
			name:   "empty map",
			before: nil,
			lo:     5, hi: 9,
			calls: []Seg[string]{{5, 9, ""}},
			after: []Seg[string]{{5, 9, "'"}},
		},
		{
			name:   "empty range",
			before: []Seg[string]{{0, 10, "a"}},
			lo:     5, hi: 5,
			calls: nil,
			after: []Seg[string]{{0, 10, "a"}},
		},
		{
			name:   "inverted range",
			before: []Seg[string]{{0, 10, "a"}},
			lo:     8, hi: 2,
			calls: nil,
			after: []Seg[string]{{0, 10, "a"}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eachForm(t, func(t *testing.T, newMap func() *Map[string]) {
				m := newMap()
				for _, s := range c.before {
					m.Insert(s.Lo, s.Hi, s.Val)
				}
				big := m.big
				var calls []Seg[string]
				m.Update(c.lo, c.hi, func(lo, hi uint64, v *string) {
					calls = append(calls, Seg[string]{lo, hi, *v})
					*v += "'"
				})
				if !reflect.DeepEqual(calls, c.calls) {
					t.Errorf("called back on %v, want %v", calls, c.calls)
				}
				if got := m.All(); !reflect.DeepEqual(got, c.after) || m.Len() != len(c.after) {
					t.Errorf("after Update: %v (Len %d), want %v", got, m.Len(), c.after)
				}
				if m.big != big {
					t.Errorf("Update changed the form: big %v → %v", big, m.big)
				}
			})
		})
	}
}

// TestMapUpdatePromotes: an Update that fills enough gaps to take a flat
// map past maxFlat leaves it promoted, with every gap filled.
func TestMapUpdatePromotes(t *testing.T) {
	m := NewMap[int]()
	for k := uint64(0); k < maxFlat; k++ {
		m.Insert(2*k+1, 2*k+2, 1)
	}
	calls := 0
	m.Update(0, 2*maxFlat, func(lo, hi uint64, v *int) {
		calls++
		*v += 10
	})
	if !m.big || m.Len() != 2*maxFlat || calls != 2*maxFlat {
		t.Fatalf("big=%v Len=%d calls=%d, want promoted with %d segments and calls", m.big, m.Len(), calls, 2*maxFlat)
	}
	for k, s := range m.All() {
		want := Seg[int]{uint64(k), uint64(k) + 1, 10 + k%2}
		if s != want {
			t.Fatalf("segment %d = %v, want %v", k, s, want)
		}
	}
}

// TestMapRetain pins Retain's removal and count on both forms: keeping
// none, all, and every other segment, with the values keep changed on
// the survivors.
func TestMapRetain(t *testing.T) {
	var before []Seg[int]
	for k := uint64(0); k < 9; k++ {
		before = append(before, Seg[int]{10 * k, 10*k + 5, int(k)})
	}
	cases := []struct {
		name string
		keep func(k int) bool
	}{
		{"none", func(int) bool { return false }},
		{"all", func(int) bool { return true }},
		{"every other", func(k int) bool { return k%2 == 0 }},
		{"every other from the second", func(k int) bool { return k%2 == 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eachForm(t, func(t *testing.T, newMap func() *Map[int]) {
				m := newMap()
				for _, s := range before {
					m.Insert(s.Lo, s.Hi, s.Val)
				}
				var seen []Seg[int]
				want := []Seg[int]{}
				for _, s := range before {
					if c.keep(s.Val) {
						want = append(want, Seg[int]{s.Lo, s.Hi, s.Val + 100})
					}
				}
				dropped := m.Retain(func(lo, hi uint64, v *int) bool {
					seen = append(seen, Seg[int]{lo, hi, *v})
					*v += 100
					return c.keep(*v - 100)
				})
				if !reflect.DeepEqual(seen, before) {
					t.Errorf("called back on %v, want every segment in order", seen)
				}
				if got := m.All(); !reflect.DeepEqual(got, want) || m.Len() != len(want) {
					t.Errorf("after Retain: %v (Len %d), want %v", got, m.Len(), want)
				}
				if dropped != len(before)-len(want) {
					t.Errorf("Retain reported %d removed, want %d", dropped, len(before)-len(want))
				}
			})
		})
	}
}
