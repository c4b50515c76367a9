package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// errBreakerOpen is the sentinel under every breaker rejection; it maps
// to 503 so clients know the shard is sick, not the request.
var errBreakerOpen = errors.New("serve: shard circuit breaker open")

// breakerOpenError is the typed rejection a tripped shard returns: it
// wraps errBreakerOpen for errors.Is and carries the cooldown remaining
// so writeError can emit an honest Retry-After.
type breakerOpenError struct {
	retry time.Duration
}

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("%v (retry in %s)", errBreakerOpen, e.retry.Round(time.Millisecond))
}

func (e *breakerOpenError) Unwrap() error { return errBreakerOpen }

// RetryAfter reports how long the client should wait before retrying;
// writeError turns it into the Retry-After header.
func (e *breakerOpenError) RetryAfter() time.Duration { return e.retry }

// Breaker states. A shard starts closed (healthy); threshold consecutive
// countable failures open it; after cooldown one half-open probe is
// admitted — success closes the breaker, failure reopens it.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// breaker is one shard's failure containment: it watches the stream of
// countable solve outcomes (config, deadline and drain errors are the
// request's or the client's fault and never count) and cuts traffic to a
// shard that keeps failing, giving it a cooldown and a fresh session
// before probing it back into service.
//
// allow runs on caller goroutines (dispatch), report on the shard
// worker; the mutex makes both safe. now is injectable for tests.
type breaker struct {
	threshold int           // consecutive countable failures to trip; ≤ 0 disables
	cooldown  time.Duration // open → half-open delay
	now       func() time.Time
	onChange  func(from, to int) // transition hook (metrics); may be nil

	mu          sync.Mutex
	state       int
	consecutive int
	openedAt    time.Time
	probing     bool // half-open: the single probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time, onChange func(from, to int)) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now, onChange: onChange}
}

// transition must be called with mu held.
func (b *breaker) transition(to int) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// allow decides whether a task may enter the shard. It returns the
// rejection's suggested retry delay and, when the admission is the
// half-open probe, probe=true — the caller must cancelProbe if the task
// is abandoned before it runs, or the probe slot leaks until cooldown
// re-arms it.
func (b *breaker) allow() (ok bool, retry time.Duration, probe bool) {
	if b == nil || b.threshold <= 0 {
		return true, 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0, false
	case breakerOpen:
		remaining := b.cooldown - b.now().Sub(b.openedAt)
		if remaining > 0 {
			return false, remaining, false
		}
		b.transition(breakerHalfOpen)
		b.probing = true
		return true, 0, true
	default: // half-open
		if b.probing {
			return false, b.cooldown, false
		}
		b.probing = true
		return true, 0, true
	}
}

// cancelProbe releases the half-open probe slot when the admitted task
// never ran (its waiter gave up before the shard picked it up).
func (b *breaker) cancelProbe() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// report feeds one countable outcome into the state machine and returns
// tripped=true when this failure opened the breaker — the worker's cue
// to discard the session and start a fresh one.
func (b *breaker) report(failed bool) (tripped bool) {
	if b == nil || b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !failed {
		b.consecutive = 0
		if b.state != breakerClosed {
			b.transition(breakerClosed)
			b.probing = false
		}
		return false
	}
	b.consecutive++
	switch {
	case b.state == breakerHalfOpen:
		// The probe failed: back to open for another full cooldown.
		b.transition(breakerOpen)
		b.openedAt = b.now()
		b.probing = false
		return true
	case b.state == breakerClosed && b.consecutive >= b.threshold:
		b.transition(breakerOpen)
		b.openedAt = b.now()
		return true
	}
	return false
}

// stateName returns the current state's metrics token.
func (b *breaker) stateName() string {
	if b == nil || b.threshold <= 0 {
		return breakerStateNames[breakerClosed]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateNames[b.state]
}
