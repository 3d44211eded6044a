package dist

import (
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
	"unicode/utf8"

	"pmtest/internal/core"
	"pmtest/internal/trace"
)

// FuzzAck: parseReport never panics on arbitrary bytes, and never makes
// more diagnostics than those bytes can hold; a report built from the
// input survives appendReport and parseReport exactly, and reads as the
// version 1 JSON ack read it wherever JSON carries its text unchanged.
func FuzzAck(f *testing.F) {
	clean := appendReport(nil, core.Report{TraceID: 3, Ops: 4, TrackedOps: 3})
	f.Add(clean, 3, 0, "not-persisted|[0x10,0x50) may not be persistent|a.go:7|b.go:9", uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, -1, 7, "", uint8(9))
	f.Add(append(clean[:len(clean):len(clean)], 0), 0, 0, "\xff|\u2028|<&>", uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, id, thread int, text string, ndiags uint8) {
		if r, err := parseReport(data); err == nil {
			if cap(r.Diags)*minDiagWire > len(data) {
				t.Fatalf("%d bytes parsed into room for %d diagnostics", len(data), cap(r.Diags))
			}
			again, err := parseReport(appendReport(nil, r))
			if err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("re-encoded ack reads %+v, %v; want %+v", again, err, r)
			}
		}

		parts := strings.Split(text, "|")
		part := func(k int) string { return parts[k%len(parts)] }
		r := core.Report{TraceID: id, Thread: thread, Ops: len(text), TrackedOps: -id}
		for i := 0; i < int(ndiags%8); i++ {
			r.Diags = append(r.Diags, core.Diagnostic{
				Severity: core.Severity(i + len(text)),
				Code:     core.Code(part(i)), Message: part(i + 1), Site: part(i + 2), Related: part(i + 3),
				OpIndex: thread - i,
			})
		}
		got, err := parseReport(appendReport(nil, r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip of %+v read %+v, %v", r, got, err)
		}
		// JSON replaces invalid UTF-8; the binary ack keeps every byte.
		if utf8.ValidString(text) {
			js, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var old core.Report
			if err := json.Unmarshal(js, &old); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, old) {
				t.Fatalf("binary ack reads %+v, the JSON ack %+v", got, old)
			}
		}
	})
}

// cannedConn is a net.Conn that reads from r and discards what is
// written to it.
type cannedConn struct {
	net.Conn // nil: only the methods below are called
	r        io.Reader
}

func (c *cannedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// ackResponse is the response a node writes for rep.
func ackResponse(rep core.Report) []byte {
	body := appendReport(nil, rep)
	return append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"+
		"Content-Length: "+strconv.Itoa(len(body))+"\r\nDate: Mon, 19 Oct 2026 20:00:00 GMT\r\n\r\n"), body...)
}

// TestStreamReadsNodeErrors: every error status a node answers a
// section with reaches the client as an *RPCError carrying the status
// and the node's message, classified as before; a response the stream
// cannot frame is a retryable error; and a clean ack parses however
// the bytes arrive.
func TestStreamReadsNodeErrors(t *testing.T) {
	addr, _, _ := startTestNode(t)
	if _, err := (&HTTPTransport{}).Open(context.Background(), addr, OpenRequest{Version: ProtocolVersion, Session: "s", Model: "x86"}); err != nil {
		t.Fatal(err)
	}
	payload, crc := encodeSection(t, testTrace(0))
	junk := []byte("not a section")
	for _, tc := range []struct {
		name    string
		sid     string
		seq     uint64
		payload []byte
		crc     uint32
		status  int
		msg     string
		class   errClass
	}{
		{"undecodable", "s", 0, junk, crc32.ChecksumIEEE(junk), http.StatusBadRequest, "undecodable section", classRefused},
		{"unknown-session", "nope", 0, payload, crc, http.StatusNotFound, `unknown session "nope"`, classSessionLost},
		{"gap", "s", 2, payload, crc, http.StatusConflict, "seq 2 leaves a gap (next expected 0)", classSessionLost},
		{"crc", "s", 0, payload, crc + 1, http.StatusUnprocessableEntity, "section crc", classRetryable},
	} {
		_, err := sectionRPC(t, addr, tc.sid, tc.seq, tc.payload, tc.crc, 0)
		var re *RPCError
		if !errors.As(err, &re) || re.Status != tc.status || !strings.Contains(re.Msg, tc.msg) || classify(err) != tc.class {
			t.Errorf("%s: err = %v, want a %d naming %q, class %d", tc.name, err, tc.status, tc.msg, tc.class)
		}
	}

	canned := func(resp string, r func(io.Reader) io.Reader) (core.Report, error) {
		return newHTTPStream(&cannedConn{r: r(strings.NewReader(resp))}, "canned", "s", time.Second).Recv()
	}
	plain := func(r io.Reader) io.Reader { return r }
	_, err := canned("HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 19\r\n\r\nnode shutting down\n", plain)
	var re *RPCError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable || re.Msg != "node shutting down" || classify(err) != classRetryable {
		t.Errorf("canned 503: err = %v, want a retryable 503 with the node's message", err)
	}

	for name, resp := range map[string]string{
		"status-line":       "HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
		"no-status":         "\r\n\r\n",
		"no-length":         "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n\x00\x00\x00\x00\x00",
		"chunked":           "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n5\r\n\x00\x00\x00\x00\x00\r\n0\r\n\r\n",
		"bad-length":        "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"past-cap":          "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(maxAck+1) + "\r\n\r\n",
		"cut-short":         "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n\x00\x00\x00",
		"cut-in-headers":    "HTTP/1.1 200 OK\r\nContent-Len",
		"malformed-report":  "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xff",
		"trailing-in-ack":   "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\n\x00\x00\x00\x00\x00\x00",
		"negative-diag-cnt": "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n\x00\x00\x00\x00\x01",
	} {
		_, err := canned(resp, plain)
		if err == nil || errors.As(err, &re) || classify(err) != classRetryable {
			t.Errorf("%s: err = %v, want a retryable framing error", name, err)
		}
	}

	want := core.Report{TraceID: 9, Thread: 2, Ops: 40, TrackedOps: 31, Diags: []core.Diagnostic{
		{Severity: core.SeverityFail, Code: core.CodeNotPersisted, Message: "[0x10,0x50) may not be persistent", Site: "a.go:7", Related: "b.go:3", OpIndex: 39},
		{Severity: core.SeverityWarn, Code: core.CodeDuplicateWriteback, Site: "a.go:8", OpIndex: 12},
	}}
	got, err := canned(string(ackResponse(want)), iotest.OneByteReader)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ack read one byte at a time: %+v, %v; want %+v", got, err, want)
	}
}

// countingConn counts the Write calls on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestStreamFlushesInBursts drives a stream as the pump does, a full
// window written and then one more section per ack, against a real
// node. Requests go out in bursts, so the connection sees far fewer
// writes than sections; a stream that flushed on every Recv would write
// once per section.
func TestStreamFlushesInBursts(t *testing.T) {
	const sections = 64
	addr, _, _ := startTestNode(t)
	if _, err := (&HTTPTransport{}).Open(context.Background(), addr, OpenRequest{Version: ProtocolVersion, Session: "bursts", Model: "x86"}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	st := newHTTPStream(cc, addr, "bursts", 5*time.Second)
	defer st.Close()
	next := 0
	send := func() {
		payload, crc := encodeSection(t, testTrace(next))
		if err := st.Send(uint64(next), payload, crc, 0); err != nil {
			t.Fatalf("section %d: %v", next, err)
		}
		next++
	}
	for next < window {
		send()
	}
	for seq := 0; seq < sections; seq++ {
		rep, err := st.Recv()
		if err != nil || rep.TraceID != seq {
			t.Fatalf("ack %d: %+v, %v", seq, rep, err)
		}
		if next < sections {
			send()
		}
	}
	writes := cc.writes.Load()
	t.Logf("%d sections in %d writes", sections, writes)
	if writes > sections/8 {
		t.Fatalf("%d sections took %d writes, want at most %d", sections, writes, sections/8)
	}
}

// TestPendingSectionsHoldOnlyPayload: a section waiting for its ack is
// held as its encoded payload alone. While the node holds every ack,
// the traces of all submitted sections are collected; the reports that
// follow equal a local engine's.
func TestPendingSectionsHoldOnlyPayload(t *testing.T) {
	const n = 50
	node := NewNode(NodeConfig{})
	gate := make(chan struct{})
	var open sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathSection {
			<-gate
		}
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		open.Do(func() { close(gate) })
		srv.Close()
		node.Close()
	})
	s, err := Open("payload-only", core.Options{}, Options{
		Nodes:      []string{strings.TrimPrefix(srv.URL, "http://")},
		RPCTimeout: 10 * time.Second,
		Attempts:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int64
	for i := 0; i < n; i++ {
		sec := windowTrace(i)
		runtime.SetFinalizer(sec, func(*trace.Trace) { collected.Add(1) })
		s.Submit(sec)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	held := collected.Load()
	open.Do(func() { close(gate) })
	got := s.Close()
	if held < n {
		t.Fatalf("%d of %d traces collected while their acks were held, want all", held, n)
	}
	eng := core.NewEngine(core.Options{Rules: core.X86{}})
	for i := 0; i < n; i++ {
		eng.Submit(windowTrace(i))
	}
	if want := eng.Close(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reports differ from a local engine's:\ngot  %+v\nwant %+v", got, want)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}
