package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// serve runs one request through the node's handler in the calling
// goroutine and returns the recorded response.
func serve(node *Node, method, target string, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, req)
	return rec
}

func openSession(t *testing.T, node *Node, sid string, startSeq uint64) {
	t.Helper()
	body, _ := json.Marshal(OpenRequest{Version: ProtocolVersion, Session: sid, Model: "x86", StartSeq: startSeq})
	if rec := serve(node, http.MethodPost, PathOpen, string(body), nil); rec.Code != http.StatusOK {
		t.Fatalf("open %s at %d: %d %s", sid, startSeq, rec.Code, rec.Body)
	}
}

func sendSection(t *testing.T, node *Node, sid string, seq uint64) *httptest.ResponseRecorder {
	t.Helper()
	payload, crc := encodeSection(t, testTrace(int(seq)))
	return serve(node, http.MethodPost, PathSection+"?session="+sid, string(payload), map[string]string{
		headerSeq: strconv.FormatUint(seq, 10),
		headerCRC: strconv.FormatUint(uint64(crc), 10),
	})
}

// TestSectionRacingSessionClose drives a section handler that looked its
// session up just before a close, a TTL reap or a superseding open took
// the session out of the node. The handler must answer 404, which the
// client treats as a lost session (reopen and replay), and must not
// check the section on the closed session's worker.
func TestSectionRacingSessionClose(t *testing.T) {
	const ttl = time.Minute
	cases := []struct {
		name   string
		retire func(t *testing.T, node *Node, clock *fakeClock)
	}{
		{"close", func(t *testing.T, node *Node, _ *fakeClock) {
			if rec := serve(node, http.MethodPost, PathClose+"?session=s", "", nil); rec.Code != http.StatusOK {
				t.Fatalf("close: %d %s", rec.Code, rec.Body)
			}
		}},
		{"reap", func(t *testing.T, node *Node, clock *fakeClock) {
			clock.advance(ttl + time.Second)
			openSession(t, node, "other", 0) // runs the sweep
		}},
		{"supersede", func(t *testing.T, node *Node, _ *fakeClock) {
			openSession(t, node, "s", 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			node := NewNode(NodeConfig{SessionTTL: ttl, now: clock.now})
			t.Cleanup(node.Close)
			openSession(t, node, "s", 0)
			if rec := sendSection(t, node, "s", 0); rec.Code != http.StatusOK {
				t.Fatalf("section 0: %d %s", rec.Code, rec.Body)
			}

			// The hook runs in the handler's goroutine between its
			// session lookup and its session lock: the retirement
			// completes in exactly that window.
			var captured *nodeSession
			node.cfg.lookedUp = func(s *nodeSession) {
				node.cfg.lookedUp = nil
				captured = s
				tc.retire(t, node, clock)
			}
			rec := sendSection(t, node, "s", 1)
			if captured == nil {
				t.Fatal("section handler never looked the session up")
			}
			if rec.Code != http.StatusNotFound || classify(&RPCError{Status: rec.Code}) != classSessionLost {
				t.Fatalf("section after %s: %d %s, want 404 (session lost)", tc.name, rec.Code, rec.Body)
			}
			captured.mu.Lock()
			closed, checked := captured.closed, len(captured.reports)
			captured.mu.Unlock()
			if !closed || checked != 1 {
				t.Fatalf("retired session: closed %v, %d reports; want closed with 1", closed, checked)
			}
		})
	}
}

// TestNodeDropsLargeSectionBuffers: a section buffer that grew past
// maxBodyPrealloc is dropped on release, so between sections the node
// pools no buffer sized by its largest section; smaller ones are reused.
func TestNodeDropsLargeSectionBuffers(t *testing.T) {
	for i := 0; i < 50; i++ {
		b := sectionPool.Get().(*sectionBuf)
		b.body.Grow(4 * maxBodyPrealloc)
		b.release()
	}
	for i := 0; i < 50; i++ {
		b := sectionPool.Get().(*sectionBuf)
		if c := b.body.Cap(); c > maxBodyPrealloc {
			t.Fatalf("pool returned a %d-byte section buffer, cap %d", c, maxBodyPrealloc)
		}
	}
}
