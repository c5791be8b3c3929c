package server

import (
	"testing"
	"time"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClockedBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooldown)
	c := &fakeClock{t: time.Unix(1000, 0)}
	b.now = c.now
	return b, c
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newClockedBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		b.Record("q", false)
		if ok, _ := b.Allow("q"); !ok {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.Record("q", false)
	ok, ra := b.Allow("q")
	if ok {
		t.Fatal("breaker still closed after 3 consecutive failures")
	}
	if ra <= 0 || ra > time.Minute {
		t.Fatalf("retry-after %v, want within (0, cooldown]", ra)
	}
	snap := b.snapshot()
	if snap.Transitions == 0 {
		t.Error("opening the breaker should count a transition")
	}
	if got := snap.Qualifiers["q"].State; got != "open" {
		t.Errorf("snapshot state %q, want open", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newClockedBreaker(3, time.Minute)
	b.Record("q", false)
	b.Record("q", false)
	b.Record("q", true)
	b.Record("q", false)
	b.Record("q", false)
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("a success between failures must reset the streak")
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b, clock := newClockedBreaker(1, time.Minute)
	b.Record("q", false) // opens
	if ok, _ := b.Allow("q"); ok {
		t.Fatal("open breaker admitted a request before the cooldown")
	}
	clock.advance(time.Minute + time.Second)

	// One probe is admitted; a second concurrent request is refused.
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("cooldown elapsed but no half-open probe admitted")
	}
	if ok, _ := b.Allow("q"); ok {
		t.Fatal("second request admitted while the probe is in flight")
	}

	// A clean probe closes the breaker.
	b.Record("q", true)
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("breaker not closed after a clean probe")
	}
	if st := b.snapshot().Qualifiers["q"].State; st != "" {
		t.Errorf("recovered qualifier still in snapshot with state %q", st)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	b, clock := newClockedBreaker(1, time.Minute)
	b.Record("q", false)
	clock.advance(time.Minute + time.Second)
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("no probe admitted")
	}
	b.Record("q", false)
	if ok, _ := b.Allow("q"); ok {
		t.Fatal("breaker closed after a failed probe")
	}
	// Another full cooldown earns another probe.
	clock.advance(time.Minute + time.Second)
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("no second probe after the failed one's cooldown")
	}
}

// TestBreakerLostProbeSelfHeals covers a probe whose request was shed while
// queued, so its outcome is never recorded: after another cooldown the
// breaker must admit a fresh probe instead of refusing forever.
func TestBreakerLostProbeSelfHeals(t *testing.T) {
	b, clock := newClockedBreaker(1, time.Minute)
	b.Record("q", false)
	clock.advance(time.Minute + time.Second)
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("no probe admitted")
	}
	// The probe's Record never arrives.
	clock.advance(time.Minute + time.Second)
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("lost probe wedged the breaker half-open")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(0, time.Minute)
	for i := 0; i < 10; i++ {
		b.Record("q", false)
	}
	if ok, _ := b.Allow("q"); !ok {
		t.Fatal("disabled breaker refused a request")
	}
	var nilB *breaker
	if ok, _ := nilB.Allow("q"); !ok {
		t.Fatal("nil breaker must allow everything")
	}
	nilB.Record("q", false) // must not panic
}

func TestBreakerKeysAreIndependent(t *testing.T) {
	b, _ := newClockedBreaker(1, time.Minute)
	b.Record("bad", false)
	if ok, _ := b.Allow("bad"); ok {
		t.Fatal("bad qualifier should be refused")
	}
	if ok, _ := b.Allow("good"); !ok {
		t.Fatal("an unrelated qualifier must not share the trip")
	}
}
