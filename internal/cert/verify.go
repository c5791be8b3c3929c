package cert

import "fmt"

// Verify replays the certificate with zero search. It checks the
// structure (term DAG, atom and literal ranges, premise references),
// then each step in order — RUP steps by unit propagation over the
// problem clauses plus earlier steps, theory steps by the named
// explanation checker — and finally that the last step derives the
// empty clause. A nil error means every Valid verdict backed by this
// certificate is justified by the problem clauses alone.
func Verify(c *Certificate) error {
	if c == nil {
		return fmt.Errorf("%w: nil certificate", ErrMalformed)
	}
	if err := validate(c); err != nil {
		return err
	}
	if len(c.Steps) == 0 {
		return ErrNoEmptyClause
	}
	for i := range c.Steps {
		st := &c.Steps[i]
		var err error
		switch st.Kind {
		case StepRUP:
			err = checkRUP(c, i)
		case StepTheory:
			switch st.Expl {
			case ExplTheory:
				err = checkTheory(c, st)
			default:
				err = fmt.Errorf("%w: unknown explanation kind %d", ErrMalformed, st.Expl)
			}
		default:
			err = fmt.Errorf("%w: unknown step kind %d", ErrMalformed, st.Kind)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	if len(c.Steps[len(c.Steps)-1].Lits) != 0 {
		return ErrNoEmptyClause
	}
	return nil
}

// validate performs the structural pass: every reference in range,
// the term table topological, operators known, and no step clause
// mentioning the same atom twice (the engine never emits such steps,
// and permitting them would let mutants smuggle in tautologies that
// are vacuously RUP).
func validate(c *Certificate) error {
	nt := int32(len(c.Terms))
	for i := range c.Terms {
		t := &c.Terms[i]
		if t.IsInt && len(t.Args) != 0 {
			return fmt.Errorf("%w: int term %d has args", ErrMalformed, i)
		}
		for _, a := range t.Args {
			if a < 0 || a >= int32(i) {
				return fmt.Errorf("%w: term %d arg %d not earlier in table", ErrMalformed, i, a)
			}
		}
	}
	for i := range c.Atoms {
		at := &c.Atoms[i]
		if at.L < 0 || at.L >= nt {
			return fmt.Errorf("%w: atom %d left term out of range", ErrMalformed, i)
		}
		switch {
		case at.Op == PredOp:
			if at.R != -1 {
				return fmt.Errorf("%w: atom %d predicate with right term", ErrMalformed, i)
			}
		case at.Op >= OpEq && at.Op <= OpGe:
			if at.R < 0 || at.R >= nt {
				return fmt.Errorf("%w: atom %d right term out of range", ErrMalformed, i)
			}
		default:
			return fmt.Errorf("%w: atom %d unknown op %d", ErrMalformed, i, at.Op)
		}
	}
	na := int32(len(c.Atoms))
	checkLits := func(lits []Lit, what string, idx int, noDup bool) error {
		var seen map[int32]bool
		if noDup {
			seen = make(map[int32]bool, len(lits))
		}
		for _, l := range lits {
			if l < 0 || l.Atom() >= na {
				return fmt.Errorf("%w: %s %d literal out of range", ErrMalformed, what, idx)
			}
			if noDup {
				if seen[l.Atom()] {
					return fmt.Errorf("%w: %s %d repeats atom %d", ErrMalformed, what, idx, l.Atom())
				}
				seen[l.Atom()] = true
			}
		}
		return nil
	}
	for i, cl := range c.Clauses {
		// Problem clauses may repeat atoms (the clausifier keeps
		// tautologies); only derivation steps are held to the
		// stricter shape.
		if err := checkLits(cl, "clause", i, false); err != nil {
			return err
		}
	}
	nc := int32(len(c.Clauses))
	for i := range c.Steps {
		st := &c.Steps[i]
		if err := checkLits(st.Lits, "step", i, true); err != nil {
			return err
		}
		if st.Kind == StepTheory && len(st.Premises) != 0 {
			return fmt.Errorf("%w: theory step %d has premises", ErrMalformed, i)
		}
		for _, p := range st.Premises {
			if p < 0 || p >= nc+int32(len(c.Steps)) {
				return fmt.Errorf("step %d: %w", i, ErrBadPremise)
			}
			if p >= nc && p-nc >= int32(i) {
				return fmt.Errorf("step %d: %w", i, ErrForwardPremise)
			}
		}
	}
	return nil
}

// checkRUP verifies step i by reverse unit propagation: assume the
// negation of every literal in the step's clause, then repeatedly
// scan the premise database for unit or falsified clauses. Reaching
// a falsified clause proves the step's clause is implied.
func checkRUP(c *Certificate, i int) error {
	st := &c.Steps[i]
	// assign[a]: 0 unknown, 1 true, -1 false.
	assign := make([]int8, len(c.Atoms))
	for _, l := range st.Lits {
		// Assert the negation: the literal itself must be false.
		if l.Negated() {
			assign[l.Atom()] = 1
		} else {
			assign[l.Atom()] = -1
		}
	}

	litVal := func(l Lit) int8 {
		v := assign[l.Atom()]
		if l.Negated() {
			return -v
		}
		return v
	}

	// Collect the premise database as a list of clauses.
	var db [][]Lit
	if st.Premises == nil {
		db = make([][]Lit, 0, len(c.Clauses)+i)
		db = append(db, c.Clauses...)
		for j := 0; j < i; j++ {
			db = append(db, c.Steps[j].Lits)
		}
	} else {
		db = make([][]Lit, 0, len(st.Premises))
		nc := int32(len(c.Clauses))
		for _, p := range st.Premises {
			if p < nc {
				db = append(db, c.Clauses[p])
			} else {
				db = append(db, c.Steps[p-nc].Lits)
			}
		}
	}

	// Repeated-scan unit propagation to fixpoint. Quadratic but
	// bounded and simple: no watch lists means nothing subtle to trust.
	for {
		progress := false
		for _, cl := range db {
			unassigned := -1
			sat := false
			multi := false
			for k, l := range cl {
				switch litVal(l) {
				case 1:
					sat = true
				case 0:
					if unassigned >= 0 {
						multi = true
					} else {
						unassigned = k
					}
				}
				if sat {
					break
				}
			}
			if sat || multi {
				continue
			}
			if unassigned < 0 {
				return nil // falsified clause: conflict reached
			}
			u := cl[unassigned]
			if u.Negated() {
				assign[u.Atom()] = -1
			} else {
				assign[u.Atom()] = 1
			}
			progress = true
		}
		if !progress {
			return ErrNotRUP
		}
	}
}
