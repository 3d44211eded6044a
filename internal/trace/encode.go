package trace

// Binary trace serialization. PMTest's decoupling means a trace is a
// self-contained unit of checking work; serializing it makes the
// decoupling span processes and time — record a production run online,
// replay it through the checking engine (or cmd/pmtrace) offline. The
// format is a simple length-prefixed little-endian encoding with a magic
// header and per-op source-site strings.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// encMagic identifies a serialized trace stream ("PMTR", version 1 in
// the low byte).
const encMagic = 0x504D5401

// ErrBadTrace is returned when decoding malformed data.
var ErrBadTrace = errors.New("trace: malformed serialized trace")

// Limits bounds what one decoded trace section may cost. A network-facing
// decoder (the pmtestd checking service) must not be OOM-able by a single
// corrupt or hostile length prefix, so both the op count and the total
// wire bytes a section may occupy are capped. The zero value of either
// field means "use the default".
type Limits struct {
	// MaxOps caps the number of operations in one section.
	MaxOps int
	// MaxBytes caps the total wire size of one section (fixed-width op
	// fields plus file-name strings).
	MaxBytes int64
}

// DefaultLimits is what Decode/DecodeAll enforce: generous enough for
// any section the harness produces (the monolithic-trace ablation ships
// hundreds of thousands of ops), far below "allocate the machine away".
var DefaultLimits = Limits{MaxOps: 16 << 20, MaxBytes: 1 << 30}

// WithDefaults fills zero fields from DefaultLimits.
func (l Limits) WithDefaults() Limits {
	if l.MaxOps <= 0 {
		l.MaxOps = DefaultLimits.MaxOps
	}
	if l.MaxBytes <= 0 {
		l.MaxBytes = DefaultLimits.MaxBytes
	}
	return l
}

// LimitError reports a section that exceeds a decode limit. It is a
// typed refusal — the input may be well-formed, merely bigger than the
// receiver is willing to materialize — so servers can map it to a
// permanent "refused" response instead of a retryable decode failure.
type LimitError struct {
	What string // "ops" or "bytes"
	Got  uint64 // claimed or accumulated size
	Max  uint64 // the configured cap
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("trace: section %s %d exceeds limit %d", e.What, e.Got, e.Max)
}

// allocChunkOps caps the op capacity reserved up front from a wire
// length prefix. Anything the prefix claims beyond this must be backed
// by actual input bytes before more memory is committed, so a corrupt
// prefix costs at most one chunk, not prefix*sizeof(Op).
const allocChunkOps = 4096

// opWireSize is the fixed per-op wire size: kind byte, four 64-bit
// fields, the 32-bit line and the 16-bit file-length prefix.
const opWireSize = 1 + 4*8 + 4 + 2

// encBufPool recycles encode buffers. Serialization happens once per
// shipped section on the program thread (Config.RecordTo), so building
// the whole frame in a reused buffer and issuing a single Write keeps
// recording allocation-free at steady state.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Encode writes the trace to w in the binary format.
func Encode(w io.Writer, t *Trace) error {
	bp := encBufPool.Get().(*[]byte)
	defer encBufPool.Put(bp)
	b := (*bp)[:0]
	if need := 4 + 3*8 + len(t.Ops)*opWireSize; cap(b) < need {
		b = make([]byte, 0, need)
	}
	b = binary.LittleEndian.AppendUint32(b, encMagic)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.ID))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Thread))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(t.Ops)))
	for _, op := range t.Ops {
		if len(op.File) > 0xFFFF {
			return fmt.Errorf("trace: file name too long (%d bytes)", len(op.File))
		}
		b = append(b, byte(op.Kind))
		b = binary.LittleEndian.AppendUint64(b, op.Addr)
		b = binary.LittleEndian.AppendUint64(b, op.Size)
		b = binary.LittleEndian.AppendUint64(b, op.Addr2)
		b = binary.LittleEndian.AppendUint64(b, op.Size2)
		b = binary.LittleEndian.AppendUint32(b, uint32(op.Line))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(op.File)))
		b = append(b, op.File...)
	}
	*bp = b
	_, err := w.Write(b)
	return err
}

// Decode reads one trace in the Encode format under DefaultLimits.
func Decode(r io.Reader) (*Trace, error) {
	return DecodeLimited(r, DefaultLimits)
}

// byteReader is a source the decoder can read op by op without adding
// buffering of its own: *bytes.Reader, *bufio.Reader and the like.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// opTailSize is the fixed wire size of an op after its kind byte; the
// 28-byte stream header fits in the same scratch buffer.
const opTailSize = opWireSize - 1

// DecodeLimited reads one trace in the Encode format, refusing sections
// that exceed the given limits with a *LimitError. Allocation is capped
// independently of the wire length prefix: capacity is committed in
// chunks as real input bytes arrive, so a corrupt or hostile prefix
// cannot trigger a huge up-front allocation.
//
// A source that already implements io.ByteReader is read directly, so
// decoding a section held in memory costs no read buffer and consumes
// exactly the section's bytes; any other source is wrapped in a
// bufio.Reader, which may read past the section.
func DecodeLimited(r io.Reader, lim Limits) (*Trace, error) {
	lim = lim.WithDefaults()
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	le := binary.LittleEndian
	var buf [opTailSize]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, err
	}
	if le.Uint32(buf[:4]) != encMagic {
		return nil, ErrBadTrace
	}
	if _, err := io.ReadFull(br, buf[:3*8]); err != nil {
		return nil, ErrBadTrace
	}
	id, thread, n := le.Uint64(buf[0:]), le.Uint64(buf[8:]), le.Uint64(buf[16:])
	if n > uint64(lim.MaxOps) {
		return nil, &LimitError{What: "ops", Got: n, Max: uint64(lim.MaxOps)}
	}
	if wire := n * opWireSize; wire > uint64(lim.MaxBytes) {
		return nil, &LimitError{What: "bytes", Got: wire, Max: uint64(lim.MaxBytes)}
	}
	// Reserve at most one chunk up front; beyond that, append grows the
	// slice only as decoded ops are actually backed by input bytes.
	cap0 := n
	if cap0 > allocChunkOps {
		cap0 = allocChunkOps
	}
	wireBytes := int64(4 + 3*8)
	t := &Trace{ID: int(id), Thread: int(thread), Ops: make([]Op, 0, cap0)}
	for i := uint64(0); i < n; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, ErrBadTrace
		}
		if Kind(kind) >= kindMax || Kind(kind) == KindInvalid {
			return nil, fmt.Errorf("trace: invalid op kind %d at op %d", kind, i)
		}
		// Addr, Size, Addr2, Size2, the line and the file-name length.
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, ErrBadTrace
		}
		fileLen := le.Uint16(buf[36:])
		if wireBytes += opWireSize + int64(fileLen); wireBytes > lim.MaxBytes {
			return nil, &LimitError{What: "bytes", Got: uint64(wireBytes), Max: uint64(lim.MaxBytes)}
		}
		var file string
		if fileLen > 0 {
			name := make([]byte, fileLen)
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, ErrBadTrace
			}
			file = string(name)
		}
		t.Ops = append(t.Ops, Op{
			Kind: Kind(kind),
			Addr: le.Uint64(buf[0:]), Size: le.Uint64(buf[8:]),
			Addr2: le.Uint64(buf[16:]), Size2: le.Uint64(buf[24:]),
			File: file, Line: int(le.Uint32(buf[32:])),
		})
	}
	return t, nil
}

// EncodeAll writes several traces back to back.
func EncodeAll(w io.Writer, traces []*Trace) error {
	for _, t := range traces {
		if err := Encode(w, t); err != nil {
			return err
		}
	}
	return nil
}

// DecodeAll reads traces until EOF under DefaultLimits.
func DecodeAll(r io.Reader) ([]*Trace, error) {
	return DecodeAllLimited(r, DefaultLimits)
}

// DecodeAllLimited reads traces until EOF, enforcing the per-section
// limits on every section.
func DecodeAllLimited(r io.Reader, lim Limits) ([]*Trace, error) {
	br := bufio.NewReader(r)
	var out []*Trace
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return out, nil
		}
		t, err := DecodeLimited(br, lim)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
