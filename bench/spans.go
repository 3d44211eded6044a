package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"pmtest"
	"pmtest/internal/obs"
)

// tracer records the spans of one traced PMTest round in memory, from the
// benchmark's own clock at each layer boundary:
//
//	whisper.op         one app op, in the program loop
//	  pmtest.send      SendTrace, when the op ended a section
//	    core.queue     engine observer: submitted → dequeued
//	    core.check     engine observer: dequeued → checked
//	    dist.node      the node's section handler (remote workloads)
//	pmtest.getresult   GetResult after the last op
//
// Spans of one section share its index. Times are ns since origin.
type tracer struct {
	origin time.Time
	curOp  int
	// opEnd[i] ends app op i; op i starts where op i-1 ended.
	opEnd     []int64
	opSection []int32 // section shipped by app op i, or -1
	sends     [][2]int64
	getResult [2]int64

	// Per section, written by the engine's observer callbacks: the
	// submitting goroutine writes sub before the queue hand-off, the
	// worker writes deq and chk after it, so no two goroutines touch the
	// same element unordered.
	sub, deq, chk []int64
	skew          []float64
	stalls        atomic.Int64
	stallNs       atomic.Int64

	// node holds the node's span of each section, indexed by seq.
	node []nodeSpan
}

func newTracer(sections, appOps int) *tracer {
	t := &tracer{
		opEnd:     make([]int64, appOps),
		opSection: make([]int32, appOps),
		sends:     make([][2]int64, 0, sections),
		sub:       make([]int64, sections),
		deq:       make([]int64, sections),
		chk:       make([]int64, sections),
		skew:      make([]float64, sections),
	}
	for i := range t.opSection {
		t.opSection[i] = -1
	}
	return t
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// cut wraps SendTrace in a pmtest.send span; a cut with nothing recorded
// ships no section and records no span.
func (t *tracer) cut(th *pmtest.Thread) func() {
	return func() {
		if th.Pending() == 0 {
			return
		}
		s := t.now()
		th.SendTrace()
		t.opSection[t.curOp] = int32(len(t.sends))
		t.sends = append(t.sends, [2]int64{s, t.now()})
	}
}

// TraceSubmitted implements obs.Observer.
func (t *tracer) TraceSubmitted(id, _, _ int) {
	if id < len(t.sub) {
		t.sub[id] = t.now()
	}
}

// TraceDequeued implements obs.Observer.
func (t *tracer) TraceDequeued(id, _ int, _ time.Duration) {
	if id < len(t.deq) {
		t.deq[id] = t.now()
	}
}

// TraceChecked implements obs.Observer.
func (t *tracer) TraceChecked(ev obs.TraceEvent) {
	if ev.TraceID >= len(t.chk) {
		return
	}
	t.chk[ev.TraceID] = t.now()
	if n := len(ev.StripeDurs); n > 1 {
		var sum, max time.Duration
		for _, d := range ev.StripeDurs {
			sum += d
			if d > max {
				max = d
			}
		}
		if sum > 0 {
			t.skew[ev.TraceID] = float64(max) * float64(n) / float64(sum)
		}
	}
}

// SubmitStalled implements obs.StallObserver.
func (t *tracer) SubmitStalled(_ int, d time.Duration) {
	t.stalls.Add(1)
	t.stallNs.Add(int64(d))
}

// layerTimes is what one traced round's spans say about each layer.
type layerTimes struct {
	// Self time summed over the round, per layer.
	whisperSelf, sendSelf, checkSelf, nodeSelf int64
	sendDur, queueWait, checkDur, nodeDur      []int64
	skew                                       float64 // mean stripe skew, 0 if unstriped
	nodeGrowth                                 float64 // 0 if no node
}

// analyze computes per-layer self times: a span's duration minus the
// part of its interval its child spans cover.
func (t *tracer) analyze(local bool) layerTimes {
	var lt layerTimes
	children := make([][][2]int64, len(t.sends))
	if local {
		// A round that shipped more sections than setup predicted fails
		// its oracle check; its extra sections carry no engine spans.
		for k := range t.sends[:min(len(t.sends), len(t.sub))] {
			children[k] = [][2]int64{{t.sub[k], t.deq[k]}, {t.deq[k], t.chk[k]}}
			lt.queueWait = append(lt.queueWait, t.deq[k]-t.sub[k])
			lt.checkDur = append(lt.checkDur, t.chk[k]-t.deq[k])
			lt.checkSelf += t.chk[k] - t.deq[k]
		}
		n := 0
		for _, s := range t.skew {
			if s > 0 {
				lt.skew += s
				n++
			}
		}
		if n > 0 {
			lt.skew /= float64(n)
		}
	}
	for _, ns := range t.node {
		if ns.seq < len(children) {
			children[ns.seq] = append(children[ns.seq], [2]int64{ns.start, ns.end})
		}
		lt.nodeDur = append(lt.nodeDur, ns.end-ns.start)
		lt.nodeSelf += ns.end - ns.start
	}
	lt.nodeGrowth = growth(t.node)
	for k, s := range t.sends {
		lt.sendDur = append(lt.sendDur, s[1]-s[0])
		lt.sendSelf += s[1] - s[0] - covered(s, children[k])
	}
	var start int64
	for i, end := range t.opEnd {
		op := [2]int64{start, end}
		self := end - start
		if k := t.opSection[i]; k >= 0 {
			self -= covered(op, [][2]int64{t.sends[k]})
		}
		lt.whisperSelf += self
		start = end
	}
	return lt
}

// covered is the length of parent's interval covered by the union of
// children.
func covered(parent [2]int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], parent[0]), min(c[1], parent[1])
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent[0]
	for _, c := range iv {
		if c[0] > end {
			end = c[0]
		}
		if c[1] > end {
			total += c[1] - end
			end = c[1]
		}
	}
	return total
}

// growth is the mean node time over the last tenth of a session's
// sections divided by the mean over the first tenth: above 1, each
// section costs the node more the longer the session runs. spans are
// indexed by seq, as nodeServer.take returns them.
func growth(s []nodeSpan) float64 {
	if len(s) < 10 {
		return 0
	}
	k := len(s) / 10
	mean := func(xs []nodeSpan) float64 {
		var sum int64
		for _, x := range xs {
			sum += x.end - x.start
		}
		return float64(sum) / float64(len(xs))
	}
	return mean(s[len(s)-k:]) / mean(s[:k])
}

// chromeEvent is one Chrome trace-event ("X" complete event, µs).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanKeepEvery keeps one section in this many in the exported trace so
// the file stays small.
const spanKeepEvery = 64

// chrome renders the round's spans of every spanKeepEvery-th section as
// Chrome trace events.
func (t *tracer) chrome(workload string, local bool) []chromeEvent {
	var out []chromeEvent
	add := func(name string, tid int, iv [2]int64, section int) {
		out = append(out, chromeEvent{Name: name, Cat: workload, Ph: "X",
			Ts: float64(iv[0]) / 1e3, Dur: float64(iv[1]-iv[0]) / 1e3, Tid: tid,
			Args: map[string]any{"section": section}})
	}
	var start int64
	for i, end := range t.opEnd {
		if k := int(t.opSection[i]); k >= 0 && k%spanKeepEvery == 0 {
			add("whisper.op", 1, [2]int64{start, end}, k)
			add("pmtest.send", 1, t.sends[k], k)
			if local && k < len(t.sub) {
				add("core.queue", 2, [2]int64{t.sub[k], t.deq[k]}, k)
				add("core.check", 2, [2]int64{t.deq[k], t.chk[k]}, k)
			}
		}
		start = end
	}
	for _, ns := range t.node {
		if ns.seq%spanKeepEvery == 0 {
			add("dist.node", 3, [2]int64{ns.start, ns.end}, ns.seq)
		}
	}
	out = append(out, chromeEvent{Name: "pmtest.getresult", Cat: workload, Ph: "X",
		Ts: float64(t.getResult[0]) / 1e3, Dur: float64(t.getResult[1]-t.getResult[0]) / 1e3, Tid: 1})
	return out
}

// writeChrome writes events as a Chrome trace-event JSON document.
func writeChrome(path string, events []chromeEvent) error {
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
