package simplify

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
)

// Unit coverage for the prefilter tiers: each tier discharges its canonical
// shape with the right reason and counter, the off-switch routes the same
// goals through the full engine with identical verdicts, and a non-valid
// goal sails through the prefilter untouched.

func prefilterProver() *Prover { return New(nil, DefaultOptions()) }

func TestPrefilterGroundEvaluation(t *testing.T) {
	// (1+2)*3 = 9 is fully interpreted: no clause set, no theories.
	goal := logic.Eq(logic.Fn("*", logic.Fn("+", logic.Num(1), logic.Num(2)), logic.Num(3)), logic.Num(9))
	out := prefilterProver().Prove(goal)
	if out.Result != Valid || out.Reason != ReasonPrefilterGround {
		t.Fatalf("got %v (%q), want Valid via %q", out.Result, out.Reason, ReasonPrefilterGround)
	}
	if out.Stats.PrefilterAttempts != 1 || out.Stats.PrefilterGround != 1 {
		t.Errorf("stats = %+v, want one attempt discharged at the ground tier", out.Stats)
	}
	if out.TraceHash == "" {
		t.Error("prefilter discharge minted no trace hash")
	}
}

func TestPrefilterGroundFalseNotDischarged(t *testing.T) {
	// A fully interpreted *false* formula must fall through to the engine
	// (which reports Unknown with a counter-example), never be "discharged".
	out := prefilterProver().Prove(logic.Eq(logic.Num(1), logic.Num(2)))
	if out.Result != Unknown {
		t.Fatalf("1 = 2 proved %v, want Unknown", out.Result)
	}
	if strings.HasPrefix(out.Reason, "prefilter") {
		t.Fatalf("false formula carries a prefilter reason: %q", out.Reason)
	}
}

func TestPrefilterUnitPropagation(t *testing.T) {
	// P(a) => P(a): the negated goal clausifies to the units P(a) and
	// NOT P(a) — a purely propositional conflict, no theories needed.
	goal := logic.Imp(logic.P("P", logic.Const("a")), logic.P("P", logic.Const("a")))
	out := prefilterProver().Prove(goal)
	if out.Result != Valid || out.Reason != ReasonPrefilterUnit {
		t.Fatalf("got %v (%q), want Valid via %q", out.Result, out.Reason, ReasonPrefilterUnit)
	}
	if out.Stats.PrefilterUnit != 1 {
		t.Errorf("stats = %+v, want a unit-tier discharge", out.Stats)
	}
}

func TestPrefilterIntervalBounds(t *testing.T) {
	a := logic.Const("a")
	cases := []struct {
		name string
		goal logic.Formula
	}{
		// Negation forces a >= 1 and a <= 0: empty interval.
		{"disjoint-bounds", logic.Not{F: logic.Conj(logic.Ge(a, logic.Num(1)), logic.Le(a, logic.Num(0)))}},
		// Negation forces 0 <= a <= 1 with both endpoints excluded: integer
		// tightening empties the interval.
		{"ne-tightening", logic.Not{F: logic.Conj(
			logic.Ge(a, logic.Num(0)), logic.Le(a, logic.Num(1)),
			logic.Ne(a, logic.Num(0)), logic.Ne(a, logic.Num(1)))}},
		// Negation forces f(a) != f(a): a zero constant difference.
		{"self-disequality", logic.Eq(logic.Fn("f", a), logic.Fn("f", a))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := prefilterProver().Prove(tc.goal)
			if out.Result != Valid || out.Reason != ReasonPrefilterInterval {
				t.Fatalf("got %v (%q), want Valid via %q", out.Result, out.Reason, ReasonPrefilterInterval)
			}
			if out.Stats.PrefilterInterval != 1 {
				t.Errorf("stats = %+v, want an interval-tier discharge", out.Stats)
			}
		})
	}
}

// TestPrefilterOffSwitch: with DisablePrefilter every tier's canonical goal
// still proves Valid through the full engine — the prefilter is one-sided,
// so switching it off may only change how Valid arrives, never whether.
func TestPrefilterOffSwitch(t *testing.T) {
	a := logic.Const("a")
	goals := []logic.Formula{
		logic.Eq(logic.Fn("*", logic.Fn("+", logic.Num(1), logic.Num(2)), logic.Num(3)), logic.Num(9)),
		logic.Imp(logic.P("P", a), logic.P("P", a)),
		logic.Not{F: logic.Conj(logic.Ge(a, logic.Num(1)), logic.Le(a, logic.Num(0)))},
		logic.Eq(logic.Fn("f", a), logic.Fn("f", a)),
	}
	opts := DefaultOptions()
	opts.DisablePrefilter = true
	p := New(nil, opts)
	for i, g := range goals {
		out := p.Prove(g)
		if out.Result != Valid {
			t.Errorf("goal %d: %v (%q), want Valid from the full engine", i, out.Result, out.Reason)
		}
		if strings.HasPrefix(out.Reason, "prefilter") {
			t.Errorf("goal %d: prefilter reason %q with the prefilter disabled", i, out.Reason)
		}
		if out.Stats.PrefilterAttempts != 0 {
			t.Errorf("goal %d: %d prefilter attempts with the prefilter disabled", i, out.Stats.PrefilterAttempts)
		}
	}
}

// TestPrefilterInFingerprint: the prefilter switch participates in the cache
// fingerprint (reasons differ between configurations, so outcomes must not
// cross).
func TestPrefilterInFingerprint(t *testing.T) {
	on := New(nil, DefaultOptions())
	offOpts := DefaultOptions()
	offOpts.DisablePrefilter = true
	off := New(nil, offOpts)
	if on.fingerprint == off.fingerprint {
		t.Fatal("DisablePrefilter does not alter the cache fingerprint")
	}
}

// TestCDCLFaultPoints covers the three new fault sites: conflict analysis
// (search.learn), backjumping (search.backjump), and the prefilter's
// interval tier. A fault mid-conflict-analysis must degrade to a transient
// Unknown — never a wrong verdict, never a cached one.
func TestCDCLFaultPoints(t *testing.T) {
	defer faults.DisarmAll()

	// Find a corpus formula whose clean proof actually learns clauses, so the
	// armed learn/backjump points are guaranteed reachable.
	r := &diffRNG{s: 0xc0ffee}
	var learnGoal logic.Formula
	for i := 0; i < 500 && learnGoal == nil; i++ {
		f := genGroundFormula(r, 3)
		if out := prefilterProver().Prove(f); out.Result == Valid && out.Stats.LearnedClauses > 0 {
			learnGoal = f
		}
	}
	if learnGoal == nil {
		t.Fatal("corpus search found no goal that learns clauses")
	}
	// Any goal that reaches tier 3 passes the prefilter.interval point; this
	// one would otherwise discharge there.
	intervalGoal := logic.Eq(logic.Fn("f", logic.Const("a")), logic.Fn("f", logic.Const("a")))

	cases := []struct {
		spec   string
		goal   logic.Formula
		prefix string
	}{
		{"simplify.search.learn=panic", learnGoal, "panic: "},
		{"simplify.search.learn=budget", learnGoal, ReasonBudget},
		{"simplify.search.backjump=error:chaos", learnGoal, "fault: "},
		{"simplify.prefilter.interval=panic", intervalGoal, "panic: "},
		{"simplify.prefilter.interval=error:chaos", intervalGoal, "fault: "},
	}
	for _, tc := range cases {
		faults.DisarmAll()
		if err := faults.Arm(tc.spec); err != nil {
			t.Fatal(err)
		}
		cache := NewCache(16)
		out := New(nil, DefaultOptions()).WithCache(cache).Prove(tc.goal)
		if out.Result != Unknown {
			t.Errorf("%s: result %v, want transient Unknown", tc.spec, out.Result)
		}
		if !strings.HasPrefix(out.Reason, tc.prefix) {
			t.Errorf("%s: reason %q, want prefix %q", tc.spec, out.Reason, tc.prefix)
		}
		if !TransientReason(out.Reason) {
			t.Errorf("%s: reason %q must be transient", tc.spec, out.Reason)
		}
		if cache.Len() != 0 {
			t.Errorf("%s: transient outcome cached", tc.spec)
		}
	}

	// Disarmed, both goals prove normally with the same prover type.
	faults.DisarmAll()
	if out := prefilterProver().Prove(learnGoal); out.Result != Valid {
		t.Fatalf("learn goal after disarm: %v (%q), want Valid", out.Result, out.Reason)
	}
	if out := prefilterProver().Prove(intervalGoal); out.Result != Valid {
		t.Fatalf("interval goal after disarm: %v (%q), want Valid", out.Result, out.Reason)
	}
}
