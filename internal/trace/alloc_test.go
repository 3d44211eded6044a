// Excluded under -race: the race runtime perturbs sync.Pool retention,
// making allocation counts meaningless.

//go:build !race

package trace

import (
	"bytes"
	"io"
	"testing"
)

// TestEncodeAllocCeiling pins allocs per serialized section: Encode
// builds the frame in a pooled buffer and issues one Write, so steady
// state is allocation-free (the pre-pool baseline paid a bufio.Writer
// plus escape-analysis scratch per call).
func TestEncodeAllocCeiling(t *testing.T) {
	tr := sampleTrace()
	const ceiling = 2.0
	allocs := testing.AllocsPerRun(100, func() {
		if err := Encode(io.Discard, tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Encode: %.1f allocs/op, ceiling %v", allocs, ceiling)
	}
}

// TestAppendEncodeOneAlloc: encoding a section whose ops carry file
// names into a nil slice costs one allocation, and the bytes are
// Encode's.
func TestAppendEncodeOneAlloc(t *testing.T) {
	tr := sampleTrace()
	for i := range tr.Ops {
		tr.Ops[i].File = "store/ctree.go"
	}
	var want bytes.Buffer
	if err := Encode(&want, tr); err != nil {
		t.Fatal(err)
	}
	var got []byte
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = AppendEncode(nil, tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendEncode(nil): %.1f allocs/op, bytes equal to Encode's: %v; want 1 allocation and equal bytes",
			allocs, bytes.Equal(got, want.Bytes()))
	}
}

// TestDecodeAllocCeiling pins allocs per decoded 38-op section held in
// a *bytes.Reader: the trace, its op slice and the scratch buffer the
// fixed-width op tails are read into. The decoder reads the in-memory
// source directly; wrapping it in a bufio.Reader would add a 4 KiB
// buffer per section. DecodeBytes into a reused Trace, the pmtestd
// node's path, allocates nothing for a section without file names.
func TestDecodeAllocCeiling(t *testing.T) {
	in := &Trace{ID: 7, Thread: 3}
	for i := 0; i < 38; i++ {
		in.Ops = append(in.Ops, Op{Kind: KindWrite, Addr: uint64(i) * 64, Size: 64})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	const ceiling = 3.0
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(buf.Bytes())
		if _, err := Decode(&rd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Decode: %.1f allocs/op, ceiling %v", allocs, ceiling)
	}

	var reused Trace
	allocs = testing.AllocsPerRun(100, func() {
		if err := DecodeBytes(&reused, buf.Bytes(), DefaultLimits); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DecodeBytes into a reused trace: %.1f allocs/op, ceiling 0", allocs)
	}
}

// TestBuilderSectionBatching: after one section has been shipped, the
// next same-shaped section costs a single batched op-slice allocation
// instead of the append grow ramp.
func TestBuilderSectionBatching(t *testing.T) {
	b := NewBuilder(0, false)
	record := func(n int) {
		for i := 0; i < n; i++ {
			b.Record(Op{Kind: KindWrite, Addr: uint64(i) * 64, Size: 64}, 0)
		}
	}
	record(100)
	if got := b.Take(); len(got.Ops) != 100 {
		t.Fatalf("first section: %d ops", len(got.Ops))
	}
	allocs := testing.AllocsPerRun(20, func() {
		record(100)
		if got := b.Take(); len(got.Ops) != 100 {
			t.Fatal("short section")
		}
	})
	// One allocation for the op slice, one for the Trace header.
	if allocs > 2 {
		t.Fatalf("steady-state section: %.1f allocs, want <= 2", allocs)
	}
}
