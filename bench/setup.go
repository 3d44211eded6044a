package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pmtest"
	"pmtest/internal/dist"
	"pmtest/internal/harness"
)

// fixture is a workload after setup: its program, the oracle every
// PMTest round is checked against, and (for remote_ctree) the node.
type fixture struct {
	w    workload
	prog *program
	// oracle holds, per section, the hash of harness.DumpReports of the
	// report the serial checker gives the recorded section; nil when the
	// program's sectionOps rule replaces it.
	oracle     []uint64
	sectionOps []int
	// sections is the number of sections one round ships.
	sections int
	// pmOps and allOps count the ops of one round's sections: PM and
	// transaction ops only, and those plus checker annotations.
	pmOps, allOps int
	// sample is the start of the encoded recording, the input of the
	// trace codec metrics.
	sample []byte
	node   *nodeServer
}

// recordFlushBytes bounds the recording held in memory during setup: the
// oracle checks and hashes it in chunks of about this size.
const recordFlushBytes = 4 << 20

// setup generates the inputs from the seed, records the program's
// sections through a tracking-only session, checks the recording once
// with pmtest.CheckRecorded on a fresh serial engine, and keeps the
// per-section report hashes. It also asserts that exactly the sections
// with an injected fault FAIL, so the oracle covers detection and not
// only the clean path.
func setup(w workload, seed int64) (*fixture, error) {
	prog := w.program(seed, w.size)
	f := &fixture{w: w, prog: prog}
	var buf bytes.Buffer
	sess := pmtest.Init(pmtest.Config{TrackOnly: true, RecordTo: &buf})
	th := sess.ThreadInit()
	recorded, tracked, all := 0, 0, 0
	var checkErr error
	flush := func() {
		if buf.Len() == 0 || checkErr != nil {
			return
		}
		if f.sample == nil {
			f.sample = append([]byte(nil), buf.Bytes()...)
		}
		reports, err := pmtest.CheckRecorded(bytes.NewReader(buf.Bytes()), pmtest.X86, 1)
		buf.Reset()
		if err != nil {
			checkErr = err
			return
		}
		for _, r := range reports {
			k := recorded
			recorded++
			r.TraceID = k
			tracked += r.TrackedOps
			all += r.Ops
			if fails, want := r.Fails() > 0, prog.expectFail(k); fails != want {
				checkErr = fmt.Errorf("section %d: FAIL=%v, want FAIL=%v:\n%s", k, fails, want, r.Summary())
				return
			}
			if prog.sectionOps != 0 {
				if !r.Clean() || r.Ops != prog.sectionOps {
					checkErr = fmt.Errorf("section %d: %d ops, clean=%v; want %d ops, clean", k, r.Ops, r.Clean(), prog.sectionOps)
					return
				}
				continue
			}
			f.oracle = append(f.oracle, reportHash(r))
			f.sectionOps = append(f.sectionOps, r.Ops)
		}
	}
	rd, err := prog.start(th, func() {
		th.SendTrace()
		if buf.Len() >= recordFlushBytes {
			flush()
		}
	})
	if err != nil {
		return nil, err
	}
	th.Start()
	for i := 0; i < prog.recordOps; i++ {
		if err := rd.step(i); err != nil {
			return nil, fmt.Errorf("recording app op %d: %w", i, err)
		}
	}
	th.SendTrace()
	flush()
	sess.Exit()
	if err := sess.Err(); err != nil {
		return nil, fmt.Errorf("recording session: %w", err)
	}
	if checkErr != nil {
		return nil, fmt.Errorf("oracle: %w", checkErr)
	}
	if prog.recordOps == prog.appOps {
		if err := rd.verify(); err != nil {
			return nil, err
		}
	}
	// Scale the recorded prefix to a whole round (exact for every
	// workload: the stream records whole sections of identical rounds).
	f.sections = recorded * prog.appOps / prog.recordOps
	f.pmOps = tracked * prog.appOps / prog.recordOps
	f.allOps = all * prog.appOps / prog.recordOps
	if w.remote {
		if f.node, err = startNode(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// close stops the fixture's node, if any.
func (f *fixture) close() {
	if f.node != nil {
		f.node.close()
	}
}

// reportHash digests one report as harness.DumpReports renders it:
// every field, every diagnostic.
func reportHash(r pmtest.Report) uint64 {
	h := fnv.New64a()
	h.Write([]byte(harness.DumpReports([]pmtest.Report{r})))
	return h.Sum64()
}

// opsOf is the op count section k must report.
func (f *fixture) opsOf(k int) int {
	if f.prog.sectionOps != 0 {
		return f.prog.sectionOps
	}
	return f.sectionOps[k]
}

// checkReports counts the sections of one round whose report is missing,
// extra, or differs from the oracle. Tracking-only rounds validate no
// checkers, so only their op counts are compared.
func (f *fixture) checkReports(reports []pmtest.Report, trackOnly bool) int {
	failed := 0
	n := len(reports)
	if n != f.sections {
		failed += abs(n - f.sections)
		n = min(n, f.sections)
	}
	for i, r := range reports[:n] {
		switch {
		case r.TraceID != i:
			failed++
		case trackOnly:
			if r.Ops != f.opsOf(i) || len(r.Diags) != 0 {
				failed++
			}
		case f.oracle != nil:
			if reportHash(r) != f.oracle[i] {
				failed++
			}
		default:
			if !r.Clean() || r.Ops != f.prog.sectionOps {
				failed++
			}
		}
	}
	return failed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// nodeServer is an in-process checker node on 127.0.0.1, wrapped so the
// benchmark times every section the node handles.
type nodeServer struct {
	addr   string
	node   *dist.Node
	srv    *http.Server
	served chan error

	// handling counts section requests not yet logged: the client may see
	// a section's ack before its handler returns here.
	handling sync.WaitGroup
	mu       sync.Mutex
	origin   time.Time
	spans    []nodeSpan
	// badSeq is the first section request whose seq header did not parse.
	badSeq error
}

// nodeSpan is the node's handling of one section: decode, check and
// reply, in ns since the round's origin.
type nodeSpan struct {
	seq        int
	start, end int64
}

// seqHeader carries a section's sequence number on the wire. The dist
// client and node keep their copy unexported; take fails every round if
// the two ever disagree.
const seqHeader = "X-Pmtest-Seq"

func startNode() (*nodeServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting node: %w", err)
	}
	n := &nodeServer{
		addr:   ln.Addr().String(),
		node:   dist.NewNode(dist.NodeConfig{}),
		served: make(chan error, 1),
	}
	n.srv = &http.Server{Handler: n}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *nodeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != dist.PathSection {
		n.node.ServeHTTP(w, r)
		return
	}
	n.handling.Add(1)
	defer n.handling.Done()
	start := time.Now()
	n.node.ServeHTTP(w, r)
	end := time.Now()
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		if n.badSeq == nil {
			n.badSeq = fmt.Errorf("section request without a valid %s header: %w", seqHeader, err)
		}
		return
	}
	n.spans = append(n.spans, nodeSpan{seq: seq,
		start: start.Sub(n.origin).Nanoseconds(), end: end.Sub(n.origin).Nanoseconds()})
}

// reset starts a new round's span log.
func (n *nodeServer) reset(origin time.Time) {
	n.mu.Lock()
	n.origin = origin
	n.spans = n.spans[:0]
	n.badSeq = nil
	n.mu.Unlock()
}

// take returns the round's section spans indexed by seq, one per
// section: the first handling of each, a redelivery's replay dropped. It
// fails unless every seq header parsed and the seqs are exactly
// 0..sections-1. Call it once every section is acknowledged.
func (n *nodeServer) take(sections int) ([]nodeSpan, error) {
	n.handling.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.badSeq != nil {
		return nil, n.badSeq
	}
	out := make([]nodeSpan, sections)
	seen := make([]bool, sections)
	for _, s := range n.spans {
		if s.seq < 0 || s.seq >= sections {
			return nil, fmt.Errorf("node handled seq %d, want 0..%d", s.seq, sections-1)
		}
		if !seen[s.seq] {
			seen[s.seq], out[s.seq] = true, s
		}
	}
	for k, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("node never handled seq %d of %d", k, sections)
		}
	}
	return out, nil
}

// close stops the server, waits for it and tears down hosted sessions.
func (n *nodeServer) close() {
	n.srv.Close()
	<-n.served
	n.node.Close()
	http.DefaultClient.CloseIdleConnections()
}
