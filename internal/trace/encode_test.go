package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return &Trace{
		ID: 7, Thread: 3,
		Ops: []Op{
			{Kind: KindWrite, Addr: 0x10, Size: 64, File: "app.go", Line: 12},
			{Kind: KindFlush, Addr: 0x10, Size: 64},
			{Kind: KindFence},
			{Kind: KindIsOrderedBefore, Addr: 1, Size: 2, Addr2: 3, Size2: 4,
				File: "checker.go", Line: 99},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleTrace()
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	var buf bytes.Buffer
	t1, t2 := sampleTrace(), sampleTrace()
	t2.ID = 8
	if err := EncodeAll(&buf, []*Trace{t1, t2}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 7 || got[1].ID != 8 {
		t.Fatalf("DecodeAll = %v", got)
	}
}

func TestDecodeEmpty(t *testing.T) {
	got, err := DecodeAll(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("DecodeAll(empty) = %v, %v", got, err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	Encode(&buf, sampleTrace())
	full := buf.Bytes()
	for _, cut := range []int{5, 20, len(full) - 3} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeInvalidKind(t *testing.T) {
	var buf bytes.Buffer
	tr := sampleTrace()
	Encode(&buf, tr)
	b := buf.Bytes()
	// The first op kind byte sits right after the 28-byte header.
	b[28] = 200
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("invalid kind not rejected")
	}
}

// TestEncodeRefusesWhatDecodeRefuses: for every kind byte, AppendEncode
// fails exactly when DecodeBytes would refuse the op, so a payload
// AppendEncode returns always decodes.
func TestEncodeRefusesWhatDecodeRefuses(t *testing.T) {
	valid := sampleTrace()
	payload, err := AppendEncode(nil, valid)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 256; k++ {
		tr := sampleTrace()
		tr.Ops[2].Kind = Kind(k)
		got, encErr := AppendEncode([]byte("x"), tr)
		b := bytes.Clone(payload)
		b[28+2*opWireSize+len("app.go")] = byte(k) // the third op's kind byte
		decErr := DecodeBytes(new(Trace), b, DefaultLimits)
		if (encErr == nil) != (decErr == nil) {
			t.Fatalf("kind %d: encode error %v, decode error %v", k, encErr, decErr)
		}
		if encErr != nil && string(got) != "x" {
			t.Fatalf("kind %d: failed encode returned %q, want the input slice", k, got)
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{ID: rng.Intn(1 << 20), Thread: rng.Intn(64)}
		kinds := []Kind{KindWrite, KindWriteNT, KindFlush, KindFence, KindOFence,
			KindDFence, KindTxBegin, KindTxEnd, KindTxAdd, KindIsPersist,
			KindIsOrderedBefore, KindTxCheckerStart, KindTxCheckerEnd,
			KindExclude, KindInclude}
		for i := 0; i < int(n); i++ {
			op := Op{
				Kind: kinds[rng.Intn(len(kinds))],
				Addr: rng.Uint64(), Size: rng.Uint64(),
				Addr2: rng.Uint64(), Size2: rng.Uint64(),
				Line: rng.Intn(1 << 16),
			}
			if rng.Intn(2) == 0 {
				op.File = "some/file.go"
			}
			tr.Ops = append(tr.Ops, op)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Ops) == 0 && len(tr.Ops) == 0 {
			return got.ID == tr.ID && got.Thread == tr.Thread
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
