package dist

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit breaker lifecycle.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-node circuit breaker: threshold consecutive failures
// open it, the cooldown elapsing lets exactly one probe through
// (half-open), and that probe's outcome closes or re-opens it. The
// clock is injected so tests never sleep.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	onOpen    func() // counted into obs; called outside critical decisions

	state    breakerState
	fails    int
	openedAt time.Time
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time, onOpen func()) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now, onOpen: onOpen}
}

// Allow reports whether a request may be sent. While open it returns
// false until the cooldown elapses, then flips to half-open and admits
// a single probe; further callers are refused until that probe reports.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false
	default: // open
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	}
}

// Success records a completed request, closing the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

// Failure records a failed request: it re-opens a half-open breaker
// immediately and opens a closed one at the failure threshold.
func (b *breaker) Failure() {
	b.mu.Lock()
	opened := false
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
		opened = true
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			opened = true
		}
	}
	cb := b.onOpen
	b.mu.Unlock()
	if opened && cb != nil {
		cb()
	}
}
