package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	p := Register("test.disarmed")
	t.Cleanup(DisarmAll)
	for i := 0; i < 100; i++ {
		if err := p.Fire(); err != nil {
			t.Fatalf("disarmed Fire returned %v", err)
		}
	}
	if p.Fires() != 0 {
		t.Fatalf("disarmed point recorded %d fires", p.Fires())
	}
}

func TestErrorAndBudgetModes(t *testing.T) {
	p := Register("test.error")
	t.Cleanup(DisarmAll)

	if err := ArmPoint("test.error", Config{Mode: ModeError, Msg: "boom"}); err != nil {
		t.Fatal(err)
	}
	err := p.Fire()
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error mode returned %v", err)
	}

	if err := ArmPoint("test.error", Config{Mode: ModeBudget}); err != nil {
		t.Fatal(err)
	}
	if err := p.Fire(); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget mode returned %v, want ErrBudget", err)
	}
}

func TestPanicModeAndFireErr(t *testing.T) {
	p := Register("test.panic")
	t.Cleanup(DisarmAll)
	if err := ArmPoint("test.panic", Config{Mode: ModePanic}); err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "test.panic") {
				t.Errorf("Fire panic value: %v", r)
			}
		}()
		p.Fire()
		t.Error("Fire did not panic")
	}()

	// FireErr contains the same panic as an error.
	err := p.FireErr()
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "test.panic") {
		t.Fatalf("FireErr returned %v", err)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	p := Register("test.schedule")
	t.Cleanup(DisarmAll)
	// Skip 2 hits, then fire every 3rd eligible hit, at most twice:
	// hits 1,2 pass; eligible hits are 3,4,5,... and fires land on
	// eligible ordinals 3 and 6, i.e. absolute hits 5 and 8.
	if err := ArmPoint("test.schedule", Config{Mode: ModeError, After: 2, Every: 3, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 20; i++ {
		if p.Fire() != nil {
			fired = append(fired, i)
		}
	}
	want := []int{5, 8}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	if p.Fires() != 2 {
		t.Fatalf("Fires() = %d, want 2", p.Fires())
	}
}

func TestDelayMode(t *testing.T) {
	p := Register("test.delay")
	t.Cleanup(DisarmAll)
	if err := Arm("test.delay=delay:10ms:limit=1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Fire(); err != nil {
		t.Fatalf("delay Fire returned %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("delay fire took %v, want >= 10ms", elapsed)
	}
	// Limit reached: no sleep on the second hit.
	start = time.Now()
	p.Fire()
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Fatalf("limited delay point still slept (%v)", elapsed)
	}
}

func TestArmSpecGrammar(t *testing.T) {
	Register("test.spec.a")
	Register("test.spec.b")
	t.Cleanup(DisarmAll)

	if err := Arm("test.spec.a=error:oops:after=1, test.spec.b=budget:every=2"); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("Armed() = false after arming")
	}
	a, b := Register("test.spec.a"), Register("test.spec.b")
	if err := a.Fire(); err != nil {
		t.Fatalf("after=1 should skip the first hit, got %v", err)
	}
	if err := a.Fire(); err == nil || !strings.Contains(err.Error(), "oops") {
		t.Fatalf("second hit should fire with msg oops, got %v", err)
	}
	if err := b.Fire(); err != nil {
		t.Fatalf("every=2 should skip hit 1, got %v", err)
	}
	if err := b.Fire(); !errors.Is(err, ErrBudget) {
		t.Fatalf("every=2 should fire on hit 2, got %v", err)
	}

	// Prefix wildcard arms both.
	DisarmAll()
	if err := Arm("test.spec.*=panic"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Point{a, b} {
		if p.cfg.Load() == nil {
			t.Errorf("wildcard did not arm %s", p.Name())
		}
	}

	DisarmAll()
	if Armed() {
		t.Fatal("Armed() = true after DisarmAll")
	}

	// Error cases.
	for _, bad := range []string{
		"nope",                      // no '='
		"test.spec.a=warp",          // unknown mode
		"no.such.point=panic",       // unregistered name
		"zz.nomatch.*=panic",        // wildcard with zero matches
		"test.spec.a=panic:5ms",     // argument on an argless mode
		"test.spec.a=delay",         // delay without duration
		"test.spec.a=error:x:k=1",   // unknown option
		"test.spec.a=panic:every=x", // non-numeric option
	} {
		if err := Arm(bad); err == nil {
			t.Errorf("Arm(%q) accepted a malformed spec", bad)
		}
	}
}

func TestCountersAndNames(t *testing.T) {
	p := Register("test.counters")
	t.Cleanup(DisarmAll)
	if err := Arm("test.counters=error:limit=3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Fire()
	}
	if got := Counters()["test.counters"]; got != 3 {
		t.Fatalf("Counters()[test.counters] = %d, want 3", got)
	}
	found := false
	for _, n := range Names() {
		if n == "test.counters" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names() missing test.counters")
	}
	// Re-arming resets the counters.
	if err := Arm("test.counters=error"); err != nil {
		t.Fatal(err)
	}
	if got := Counters()["test.counters"]; got != 0 {
		t.Fatalf("re-arm did not reset fires: %d", got)
	}
}
