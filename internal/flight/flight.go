// Package flight is the span-level flight recorder of the PMTest
// reproduction: a causal timeline layered under the obs.Observer seam.
//
// Where internal/obs answers "how fast, how many", flight answers "what
// happened, in what order, and why did this checker fire": one span per
// recorded trace section, per library transaction, per engine check, per
// checker finding and per fault-injection schedule, each carrying start
// and finish timestamps, a parent span, and a bounded set of key/value
// annotations. Spans live in per-category overwrite-oldest rings
// (obs.Ring), so recording is always-on-safe: bounded memory, pooled
// span objects, no allocation on the clean checking path.
//
// Two export surfaces read the rings: Handler serves a newest-first
// browse with category/duration/error filters as JSON (mounted beside
// obs.Handler on -obs-listen), and WriteChrome emits Chrome trace-event
// JSON loadable in about://tracing or Perfetto; `pmtrace timeline`
// renders the same export as a text gantt.
package flight

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmtest/internal/obs"
)

// Category buckets spans by origin; each category has its own ring, so
// a flood of one kind (engine checks) cannot evict the rarer, more
// valuable kinds (checker findings, campaign schedules).
type Category uint8

// Span categories.
const (
	// CatSession: one span per recorded trace section (SendTrace cut).
	CatSession Category = iota
	// CatTx: one span per library transaction (pmdk/mnemosyne shims).
	CatTx
	// CatChecker: one span per checker finding (FAIL/WARN/INFO).
	CatChecker
	// CatEngine: one span per engine check (dequeue→checked).
	CatEngine
	// CatCampaign: one span per fault-injection schedule.
	CatCampaign
	// CatRPC: one span per distributed-checking RPC attempt, retry
	// burst, or failover (internal/dist).
	CatRPC

	numCategories
)

var categoryNames = [numCategories]string{"session", "tx", "checker", "engine", "campaign", "rpc"}

// String names the category as used in filters and exports.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// ParseCategory maps a category name back to its value.
func ParseCategory(s string) (Category, bool) {
	for i, n := range categoryNames {
		if n == s {
			return Category(i), true
		}
	}
	return 0, false
}

// maxAttrs and maxEvents bound the annotations a span can carry; the
// fixed arrays keep a Span copyable into its ring without allocation.
// Excess annotations are counted in Dropped rather than stored.
const (
	maxAttrs  = 12
	maxEvents = 4
)

// Attr is one key/value annotation: either an integer or a string.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Value returns the attribute's value as written.
func (a Attr) Value() any {
	if a.IsInt {
		return a.Int
	}
	return a.Str
}

// Event is one timestamped point annotation inside a span.
type Event struct {
	At  time.Time
	Msg string
}

// Span is one timed operation in the recorder. Spans are created with
// Recorder.Start, annotated with the Set methods and sealed with Finish,
// which copies the value into its category ring and recycles the
// object. All methods are nil-receiver-safe, so instrumentation never
// needs a recorder-enabled branch.
type Span struct {
	ID       uint64
	Parent   uint64 // 0 = root
	Category Category
	Name     string
	// TID is the timeline lane (program thread for section/tx/engine
	// spans); exports group by it.
	TID     int
	Start   time.Time
	End     time.Time
	Err     bool
	Dropped uint8 // annotations beyond the fixed capacity

	nAttrs  uint8
	nEvents uint8
	attrs   [maxAttrs]Attr
	events  [maxEvents]Event

	rec *Recorder // owning recorder while open; nil once sealed
}

// Attrs returns the span's annotations (aliasing internal storage).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs[:s.nAttrs]
}

// Attr returns the value of the named annotation, or nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	for i := uint8(0); i < s.nAttrs; i++ {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value()
		}
	}
	return nil
}

// Events returns the span's point annotations (aliasing internal
// storage).
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events[:s.nEvents]
}

// Dur returns the span's duration (End may be zero while open).
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.End.Sub(s.Start)
}

// SetInt adds an integer annotation.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	if s.nAttrs == maxAttrs {
		s.Dropped++
		return s
	}
	s.attrs[s.nAttrs] = Attr{Key: key, Int: v, IsInt: true}
	s.nAttrs++
	return s
}

// SetStr adds a string annotation.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	if s.nAttrs == maxAttrs {
		s.Dropped++
		return s
	}
	s.attrs[s.nAttrs] = Attr{Key: key, Str: v}
	s.nAttrs++
	return s
}

// SetErr marks the span as failed when failed is true.
func (s *Span) SetErr(failed bool) *Span {
	if s == nil {
		return nil
	}
	s.Err = s.Err || failed
	return s
}

// SetTID assigns the span's timeline lane.
func (s *Span) SetTID(tid int) *Span {
	if s == nil {
		return nil
	}
	s.TID = tid
	return s
}

// AddEvent appends a timestamped point annotation.
func (s *Span) AddEvent(msg string) *Span {
	if s == nil {
		return nil
	}
	if s.nEvents == maxEvents {
		s.Dropped++
		return s
	}
	s.events[s.nEvents] = Event{At: time.Now(), Msg: msg}
	s.nEvents++
	return s
}

// Finish seals the span now.
func (s *Span) Finish() { s.FinishAt(time.Now()) }

// FinishAt seals the span at the given instant: the value is copied
// into its category ring and the object returns to the recorder's pool.
// The span must not be used afterwards.
func (s *Span) FinishAt(at time.Time) {
	if s == nil || s.rec == nil {
		return
	}
	s.End = at
	rec := s.rec
	s.rec = nil
	rec.rings[s.Category].Add(*s)
	rec.pool.Put(s)
}

// Recorder is the span store: an atomic ID source, a span pool and one
// overwrite-oldest ring per category. Safe for concurrent use.
type Recorder struct {
	nextID atomic.Uint64
	pool   sync.Pool
	rings  [numCategories]*obs.Ring[Span]
}

// NewRecorder returns a recorder keeping the last perCategory spans in
// each category ring (default 256 if perCategory <= 0).
func NewRecorder(perCategory int) *Recorder {
	if perCategory <= 0 {
		perCategory = 256
	}
	r := &Recorder{pool: sync.Pool{New: func() any { return new(Span) }}}
	for i := range r.rings {
		r.rings[i] = obs.NewRing[Span](perCategory)
	}
	return r
}

// Start opens a span now. A nil recorder returns a nil span, on which
// every method is a no-op.
func (r *Recorder) Start(cat Category, name string, parent uint64) *Span {
	return r.StartAt(cat, name, parent, time.Now())
}

// StartAt opens a span with an explicit start instant — used by
// observers that reconstruct a span after the fact (the engine reports
// queue wait and check duration only once checking completes).
func (r *Recorder) StartAt(cat Category, name string, parent uint64, at time.Time) *Span {
	if r == nil {
		return nil
	}
	s := r.pool.Get().(*Span)
	*s = Span{
		ID:       r.nextID.Add(1),
		Parent:   parent,
		Category: cat,
		Name:     name,
		Start:    at,
		rec:      r,
	}
	return s
}

// Len returns the number of recorded (finished) spans per category.
func (r *Recorder) Len(cat Category) int {
	if r == nil || cat >= numCategories {
		return 0
	}
	return r.rings[cat].Len()
}

// Query selects spans for Search. The zero value matches everything.
// It is the one filter vocabulary of the span query plane: Handler
// decodes it from URL parameters (ParseQuery) and the fleet-wide
// fan-out (internal/fleet) encodes it with Values.
type Query struct {
	// Category restricts to one category when HasCategory is set.
	Category    Category
	HasCategory bool
	// MinDur drops spans shorter than this.
	MinDur time.Duration
	// ErrOnly keeps only failed spans.
	ErrOnly bool
	// Name keeps spans whose name contains this substring.
	Name string
	// Since/Until bound the span start time (zero = unbounded). Since is
	// inclusive, Until exclusive.
	Since time.Time
	Until time.Time
	// AttrKey/AttrVal keep spans carrying an annotation with this exact
	// key whose formatted value equals AttrVal (integer attributes
	// compare against their decimal rendering). AttrVal "" with a
	// non-empty AttrKey matches any span carrying the key.
	AttrKey string
	AttrVal string
	// Limit caps the result (0 = 100).
	Limit int
}

func (f *Query) match(s *Span) bool {
	if f.MinDur > 0 && s.Dur() < f.MinDur {
		return false
	}
	if f.ErrOnly && !s.Err {
		return false
	}
	if f.Name != "" && !strings.Contains(s.Name, f.Name) {
		return false
	}
	if !f.Since.IsZero() && s.Start.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !s.Start.Before(f.Until) {
		return false
	}
	if f.AttrKey != "" && !matchAttr(s, f.AttrKey, f.AttrVal) {
		return false
	}
	return true
}

// matchAttr reports whether the span carries attribute key with the
// given formatted value ("" matches any value).
func matchAttr(s *Span, key, val string) bool {
	for i := uint8(0); i < s.nAttrs; i++ {
		a := &s.attrs[i]
		if a.Key != key {
			continue
		}
		if val == "" {
			return true
		}
		if a.IsInt {
			if strconv.FormatInt(a.Int, 10) == val {
				return true
			}
		} else if a.Str == val {
			return true
		}
	}
	return false
}

// Search returns the newest matching spans in one total order (newest
// start first), walking the selected category rings in place (no ring
// snapshot copy). Each ring already iterates newest-first, so per-ring
// collection stops at the limit and the rings are then merged by start
// time — the result is the same total order a single ring holding every
// span would produce.
func (r *Recorder) Search(f Query) []Span {
	if r == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	var perRing [numCategories][]Span
	scan := func(cat Category) {
		n := 0
		r.rings[cat].Do(func(s Span) bool {
			if f.match(&s) {
				perRing[cat] = append(perRing[cat], s)
				n++
			}
			return n < limit
		})
	}
	if f.HasCategory {
		if f.Category < numCategories {
			scan(f.Category)
		}
	} else {
		for cat := Category(0); cat < numCategories; cat++ {
			scan(cat)
		}
	}
	return mergeNewest(perRing[:], limit)
}

// mergeNewest k-way merges per-ring newest-first slices into one
// newest-first result capped at limit. Ties on start time break by
// span ID (higher = newer), keeping the order deterministic even for
// spans stamped in the same clock tick.
func mergeNewest(rings [][]Span, limit int) []Span {
	var out []Span
	for len(out) < limit {
		best := -1
		for i, r := range rings {
			if len(r) == 0 {
				continue
			}
			if best < 0 || newerSpan(&r[0], &rings[best][0]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, rings[best][0])
		rings[best] = rings[best][1:]
	}
	return out
}

// newerSpan orders spans newest-first: later start wins, span ID breaks
// ties.
func newerSpan(a, b *Span) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.After(b.Start)
	}
	return a.ID > b.ID
}

// Export returns every recorded span across all categories, ordered by
// start time — the input WriteChrome expects.
func (r *Recorder) Export() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, ring := range r.rings {
		out = append(out, ring.Snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
