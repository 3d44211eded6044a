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
	"slices"
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
	b, err := AppendEncode((*bp)[:0], t)
	if err != nil {
		return err
	}
	*bp = b
	_, err = w.Write(b)
	return err
}

// AppendEncode appends the trace's Encode format to b. A b without room
// for the section grows once, to the section's exact size, so encoding
// into a nil slice costs one allocation. It refuses an op kind the
// decoders refuse, so what it encodes always decodes. On error the
// returned slice has b's length.
func AppendEncode(b []byte, t *Trace) ([]byte, error) {
	if need := headerSize + len(t.Ops)*opWireSize; cap(b)-len(b) < need {
		for i := range t.Ops {
			need += len(t.Ops[i].File)
		}
		b = slices.Grow(b, need)
	}
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, encMagic)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.ID))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Thread))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(t.Ops)))
	for i := range t.Ops {
		op := &t.Ops[i]
		if len(op.File) > 0xFFFF {
			return b[:start], fmt.Errorf("trace: file name too long (%d bytes)", len(op.File))
		}
		if err := checkKind(byte(op.Kind), uint64(i)); err != nil {
			return b[:start], err
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
	return b, nil
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

// headerSize is the wire size of a section's header: the magic, the
// ID, the thread and the op count.
const headerSize = 4 + 3*8

// sectionDecoder holds the limits both decode entry points enforce:
// the header's op count and the section's running wire size. With
// checkKind and parseOp it is all they share; only reading the bytes
// differs between a stream and a slice.
type sectionDecoder struct {
	lim  Limits
	wire int64 // wire bytes of the section so far
}

// header parses the 24 header bytes after the magic and refuses an op
// count the limits cannot admit.
func (d *sectionDecoder) header(h []byte) (id, thread, n uint64, err error) {
	le := binary.LittleEndian
	id, thread, n = le.Uint64(h[0:]), le.Uint64(h[8:]), le.Uint64(h[16:])
	if n > uint64(d.lim.MaxOps) {
		return 0, 0, 0, &LimitError{What: "ops", Got: n, Max: uint64(d.lim.MaxOps)}
	}
	if wire := n * opWireSize; wire > uint64(d.lim.MaxBytes) {
		return 0, 0, 0, &LimitError{What: "bytes", Got: wire, Max: uint64(d.lim.MaxBytes)}
	}
	d.wire = headerSize
	return id, thread, n, nil
}

// checkKind checks op i's kind byte.
func checkKind(k byte, i uint64) error {
	if Kind(k) >= kindMax || Kind(k) == KindInvalid {
		return fmt.Errorf("trace: invalid op kind %d at op %d", k, i)
	}
	return nil
}

// charge adds an op's wire size, file name included, to the section's
// and refuses the section once that exceeds MaxBytes.
func (d *sectionDecoder) charge(fileLen int) error {
	if d.wire += opWireSize + int64(fileLen); d.wire > d.lim.MaxBytes {
		return &LimitError{What: "bytes", Got: uint64(d.wire), Max: uint64(d.lim.MaxBytes)}
	}
	return nil
}

// parseOp parses an op's fixed-width tail: Addr, Size, Addr2, Size2,
// the line and the file-name length. It returns the op without its file
// name, and the name's length.
func parseOp(k byte, tail []byte) (Op, int) {
	le := binary.LittleEndian
	return Op{
		Kind: Kind(k),
		Addr: le.Uint64(tail[0:]), Size: le.Uint64(tail[8:]),
		Addr2: le.Uint64(tail[16:]), Size2: le.Uint64(tail[24:]),
		Line: int(le.Uint32(tail[32:])),
	}, int(le.Uint16(tail[36:]))
}

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
	d := sectionDecoder{lim: lim.WithDefaults()}
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var buf [opTailSize]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[:4]) != encMagic {
		return nil, ErrBadTrace
	}
	if _, err := io.ReadFull(br, buf[:headerSize-4]); err != nil {
		return nil, ErrBadTrace
	}
	id, thread, n, err := d.header(buf[:headerSize-4])
	if err != nil {
		return nil, err
	}
	// Reserve at most one chunk up front; beyond that, append grows the
	// slice only as decoded ops are actually backed by input bytes.
	t := &Trace{ID: int(id), Thread: int(thread), Ops: make([]Op, 0, min(n, allocChunkOps))}
	for i := uint64(0); i < n; i++ {
		k, err := br.ReadByte()
		if err != nil {
			return nil, ErrBadTrace
		}
		if err := checkKind(k, i); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, ErrBadTrace
		}
		op, fileLen := parseOp(k, buf[:])
		if err := d.charge(fileLen); err != nil {
			return nil, err
		}
		if fileLen > 0 {
			name := make([]byte, fileLen)
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, ErrBadTrace
			}
			op.File = string(name)
		}
		t.Ops = append(t.Ops, op)
	}
	return t, nil
}

// DecodeBytes decodes the section at the start of b into t, with
// DecodeLimited's limits and errors; bytes after the section are
// ignored, as DecodeLimited leaves them unread. t is overwritten whole
// and keeps the capacity of its op slice, so a caller that decodes
// section after section into one Trace allocates nothing for sections
// without file names. Since the input is already in memory, up-front
// capacity is bounded by the ops b can hold, not by the length prefix.
// After an error t's contents are unspecified.
func DecodeBytes(t *Trace, b []byte, lim Limits) error {
	d := sectionDecoder{lim: lim.WithDefaults()}
	switch {
	case len(b) == 0:
		return io.EOF
	case len(b) < 4:
		return io.ErrUnexpectedEOF
	case binary.LittleEndian.Uint32(b) != encMagic, len(b) < headerSize:
		return ErrBadTrace
	}
	id, thread, n, err := d.header(b[4:headerSize])
	if err != nil {
		return err
	}
	*t = Trace{ID: int(id), Thread: int(thread),
		Ops: slices.Grow(t.Ops[:0], int(min(n, uint64(len(b)-headerSize)/opWireSize)))}
	off := headerSize
	for i := uint64(0); i < n; i++ {
		if off >= len(b) {
			return ErrBadTrace
		}
		k := b[off]
		if err := checkKind(k, i); err != nil {
			return err
		}
		if off+opWireSize > len(b) {
			return ErrBadTrace
		}
		op, fileLen := parseOp(k, b[off+1:off+opWireSize])
		if err := d.charge(fileLen); err != nil {
			return err
		}
		off += opWireSize
		if fileLen > 0 {
			if off+fileLen > len(b) {
				return ErrBadTrace
			}
			op.File = string(b[off : off+fileLen])
			off += fileLen
		}
		t.Ops = append(t.Ops, op)
	}
	return nil
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
