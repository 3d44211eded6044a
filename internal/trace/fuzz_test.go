package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// plainReader hides every method but Read, so the decoder takes its
// buffering path.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// FuzzDecode: arbitrary bytes must never panic the decoder, and anything
// it accepts must re-encode and re-decode to the same trace. The
// tight-limit pass additionally proves hostile input cannot buy a large
// allocation: whatever the length prefix claims, decoding under small
// limits either succeeds within them or returns a typed *LimitError.
// Three decodes run under both limits and must agree: a *bytes.Reader
// read directly, a plain io.Reader the decoder buffers itself, and
// DecodeBytes into a Trace that still holds another section. They give
// identical traces or identical errors.
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	Encode(&seed, &Trace{ID: 1, Thread: 2, Ops: []Op{
		{Kind: KindWrite, Addr: 0x10, Size: 64, File: "a.go", Line: 3},
		{Kind: KindFence},
	}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 84, 77, 80})
	// A well-formed header whose op count claims 2^40 ops: the classic
	// corrupt-length-prefix OOM attempt.
	var huge bytes.Buffer
	binary.Write(&huge, binary.LittleEndian, uint32(encMagic))
	binary.Write(&huge, binary.LittleEndian, uint64(7)) // id
	binary.Write(&huge, binary.LittleEndian, uint64(0)) // thread
	binary.Write(&huge, binary.LittleEndian, uint64(1)<<40)
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile-input pass: tiny limits must hold whatever the bytes say.
		lim := Limits{MaxOps: 8, MaxBytes: 1024}
		for _, l := range []Limits{lim, DefaultLimits} {
			direct, derr := DecodeLimited(bytes.NewReader(data), l)
			buffered, berr := DecodeLimited(plainReader{bytes.NewReader(data)}, l)
			if fmt.Sprint(derr) != fmt.Sprint(berr) || !reflect.DeepEqual(direct, buffered) {
				t.Fatalf("limits %+v: direct decode (%v, %v) != buffered decode (%v, %v)",
					l, direct, derr, buffered, berr)
			}
			reused := staleTrace()
			serr := DecodeBytes(reused, data, l)
			if fmt.Sprint(derr) != fmt.Sprint(serr) || (derr == nil && !reflect.DeepEqual(direct, reused)) {
				t.Fatalf("limits %+v: direct decode (%v, %v) != DecodeBytes (%v, %v)",
					l, direct, derr, reused, serr)
			}
		}
		if tr, err := DecodeLimited(bytes.NewReader(data), lim); err == nil {
			if len(tr.Ops) > lim.MaxOps {
				t.Fatalf("decode under MaxOps=%d returned %d ops", lim.MaxOps, len(tr.Ops))
			}
		} else {
			var le *LimitError
			if errors.As(err, &le) && le.What == "ops" && le.Got <= uint64(lim.MaxOps) {
				t.Fatalf("limit error for %d ops under MaxOps=%d", le.Got, lim.MaxOps)
			}
		}
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if len(tr2.Ops) != len(tr.Ops) || tr2.ID != tr.ID {
			t.Fatal("round trip after decode not stable")
		}
	})
}

// staleTrace is a Trace as a decoder finds it when it is reused: every
// field holds an earlier section's values.
func staleTrace() *Trace {
	return &Trace{ID: 99, Thread: 98, SpanID: 97, RemoteSession: "stale", RemoteSpan: 96,
		TxSpans: []SpanRange{{}},
		Ops:     []Op{{Kind: KindFence, File: "stale.go", Line: 1}, {Kind: KindWrite, Addr: 1, Size: 2}}}
}
