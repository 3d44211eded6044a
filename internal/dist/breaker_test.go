package dist

import (
	"testing"
	"time"
)

// fakeClock is an injectable clock for breaker tests; no test sleeps.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// TestBreakerLifecycle drives the closed → open → half-open → closed /
// re-open transitions event by event with an injected clock.
func TestBreakerLifecycle(t *testing.T) {
	type step struct {
		event     string // "fail", "success", "advance"
		adv       time.Duration
		wantAllow bool
		wantState breakerState
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"opens at threshold", []step{
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: false, wantState: breakerOpen},
		}},
		{"success resets the count", []step{
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "success", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: false, wantState: breakerOpen},
		}},
		{"cooldown admits one probe, success closes", []step{
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: false, wantState: breakerOpen},
			{event: "advance", adv: time.Second, wantAllow: false, wantState: breakerOpen},
			{event: "advance", adv: time.Second, wantAllow: true, wantState: breakerHalfOpen},
			{event: "success", wantAllow: true, wantState: breakerClosed},
		}},
		{"half-open probe failure re-opens", []step{
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: true, wantState: breakerClosed},
			{event: "fail", wantAllow: false, wantState: breakerOpen},
			{event: "advance", adv: 2 * time.Second, wantAllow: true, wantState: breakerHalfOpen},
			{event: "fail", wantAllow: false, wantState: breakerOpen},
			// The re-open restarts the cooldown from the probe failure.
			{event: "advance", adv: time.Second, wantAllow: false, wantState: breakerOpen},
			{event: "advance", adv: time.Second, wantAllow: true, wantState: breakerHalfOpen},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clock := newFakeClock()
			opens := 0
			b := newBreaker(3, 2*time.Second, clock.now, func() { opens++ })
			for i, st := range c.steps {
				switch st.event {
				case "fail":
					b.Failure()
				case "success":
					b.Success()
				case "advance":
					clock.advance(st.adv)
				}
				if got := b.Allow(); got != st.wantAllow {
					t.Fatalf("step %d (%s): Allow() = %v, want %v", i, st.event, got, st.wantAllow)
				}
				if b.state != st.wantState {
					t.Fatalf("step %d (%s): state = %d, want %d", i, st.event, b.state, st.wantState)
				}
			}
		})
	}
}

// TestBreakerHalfOpenSingleProbe: only the caller that flipped the
// breaker to half-open gets through; concurrent callers are refused
// until the probe reports.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := newFakeClock()
	b := newBreaker(1, time.Second, clock.now, nil)
	b.Failure()
	clock.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.Allow() {
		t.Fatal("second caller admitted during a half-open probe")
	}
	b.Success()
	if !b.Allow() {
		t.Fatal("breaker not closed after successful probe")
	}
}

// TestBreakerOnOpenCounts: the open callback fires once per
// closed-to-open (or half-open-to-open) transition, not per failure.
func TestBreakerOnOpenCounts(t *testing.T) {
	clock := newFakeClock()
	opens := 0
	b := newBreaker(2, time.Second, clock.now, func() { opens++ })
	b.Failure()
	b.Failure() // opens
	b.Failure() // already open: no-op
	if opens != 1 {
		t.Fatalf("opens = %d after threshold, want 1", opens)
	}
	clock.advance(time.Second)
	b.Allow()   // half-open
	b.Failure() // re-opens
	if opens != 2 {
		t.Fatalf("opens = %d after failed probe, want 2", opens)
	}
}
