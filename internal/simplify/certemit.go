package simplify

import (
	"repro/internal/cert"
	"repro/internal/logic"
)

// certBuilder transcribes one goal's refutation into a cert.Certificate
// as the search runs: terms and atoms are copied on first use into the
// certificate's own tables (so the certificate is self-contained), and
// every learned clause and theory conflict explanation becomes a
// derivation step. The problem clause section is snapshotted from the
// clause database at finish time; since the database only grows within
// a goal and RUP checking is monotone under database growth, the late
// snapshot covers every step.
type certBuilder struct {
	tt      *logic.TermTable
	at      *atomTable
	termIdx map[logic.TermID]int32
	atomIdx map[atomID]int32
	c       *cert.Certificate
}

func newCertBuilder(tt *logic.TermTable, at *atomTable) *certBuilder {
	return &certBuilder{
		tt:      tt,
		at:      at,
		termIdx: map[logic.TermID]int32{},
		atomIdx: map[atomID]int32{},
		c:       &cert.Certificate{},
	}
}

// term copies one interned term (and, recursively, its arguments) into
// the certificate table, memoized per TermID so hash-consing identity
// is preserved.
func (b *certBuilder) term(t logic.TermID) int32 {
	if i, ok := b.termIdx[t]; ok {
		return i
	}
	var ct cert.Term
	switch b.tt.Kind(t) {
	case logic.KindInt:
		ct = cert.Term{Int: b.tt.IntVal(t), IsInt: true}
	case logic.KindApp:
		args := b.tt.Args(t)
		ca := make([]int32, len(args))
		for i, a := range args {
			ca[i] = b.term(a)
		}
		ct = cert.Term{Fn: b.tt.Fn(t), Args: ca}
	default:
		// A free variable in a ground certificate context: an opaque
		// nullary symbol with the variable's name.
		ct = cert.Term{Fn: b.tt.Fn(t)}
	}
	i := int32(len(b.c.Terms))
	b.c.Terms = append(b.c.Terms, ct)
	b.termIdx[t] = i
	return i
}

func (b *certBuilder) atom(a atomID) int32 {
	if i, ok := b.atomIdx[a]; ok {
		return i
	}
	k := b.at.keys[a]
	var ca cert.Atom
	if k.op == predOp {
		ca = cert.Atom{Op: cert.PredOp, L: b.term(k.l), R: -1}
	} else {
		ca = cert.Atom{Op: k.op, L: b.term(k.l), R: b.term(k.r)}
	}
	i := int32(len(b.c.Atoms))
	b.c.Atoms = append(b.c.Atoms, ca)
	b.atomIdx[a] = i
	return i
}

func (b *certBuilder) lit(l ilit) cert.Lit {
	return cert.MkLit(b.atom(l.atom()), l.negated())
}

func (b *certBuilder) lits(ls []ilit) []cert.Lit {
	out := make([]cert.Lit, len(ls))
	for i, l := range ls {
		out[i] = b.lit(l)
	}
	return out
}

// rupStep records a clause derivable by unit propagation from the
// problem clauses plus all earlier steps (learned clauses, the final empty
// clause).
func (b *certBuilder) rupStep(ls []ilit) {
	b.c.Steps = append(b.c.Steps, cert.Step{Kind: cert.StepRUP, Lits: b.lits(ls)})
}

// theoryStep records a theory lemma: the negations of ls are jointly
// inconsistent under EUF + linear arithmetic.
func (b *certBuilder) theoryStep(ls []ilit) {
	b.c.Steps = append(b.c.Steps, cert.Step{
		Kind: cert.StepTheory, Expl: cert.ExplTheory, Lits: b.lits(ls),
	})
}

// emptyStep records the final contradiction.
func (b *certBuilder) emptyStep() {
	b.c.Steps = append(b.c.Steps, cert.Step{Kind: cert.StepRUP})
}

// finish snapshots the problem clause section from the clause database
// and returns the completed certificate.
func (b *certBuilder) finish(db *clauseDB, key string) *cert.Certificate {
	b.c.Clauses = make([][]cert.Lit, len(db.clauses))
	for i, cl := range db.clauses {
		b.c.Clauses[i] = b.lits(cl)
	}
	b.c.Key = key
	return b.c
}

// sealCert finishes the builder's certificate, verifies it with the
// independent replay checker, and attaches it to out. On a rejection
// (or an injected cert fault) out is degraded in place to a transient,
// uncached Unknown.
func (p *Prover) sealCert(cb *certBuilder, db *clauseDB, goal logic.Formula, out *Outcome, tk *ticker) {
	fireInto(fpCertEmit, tk)
	if tk.reason != "" {
		out.Result = Unknown
		out.Reason = tk.reason
		return
	}
	crt := cb.finish(db, logic.CanonicalString(goal))
	verr := fpCertReplay.FireErr()
	if verr == nil {
		verr = cert.Verify(crt)
	}
	if verr != nil {
		certRejected.Add(1)
		out.Stats.CertsRejected = 1
		out.Result = Unknown
		out.Reason = "cert: replay rejected: " + verr.Error()
		out.CounterExample = nil
		return
	}
	certEmitted.Add(1)
	certReplayed.Add(1)
	out.Stats.CertsEmitted = 1
	out.Stats.CertsReplayed = 1
	out.Certificate = crt
}
