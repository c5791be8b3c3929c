package soundness

import (
	"encoding/json"
	"io"
	"sync"
)

// traceRecord is the JSON Lines schema for one discharged obligation. Field
// names are stable: downstream tooling (jq, spreadsheet imports) keys on
// them.
type traceRecord struct {
	Qualifier  string `json:"qualifier"`
	Kind       string `json:"kind"`
	Obligation string `json:"obligation"`
	OblKind    string `json:"obligation_kind"`
	Result     string `json:"result"`
	Valid      bool   `json:"valid"`
	Reason     string `json:"reason,omitempty"`
	Vacuous    bool   `json:"vacuous,omitempty"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	// ElapsedUS is the goal's wall-clock discharge time in microseconds
	// (measured at the discharge site, so it is near zero on a cache hit).
	ElapsedUS int64 `json:"elapsed_us"`

	// TraceHash is the CDCL engine's deterministic fingerprint of the whole
	// search event stream (decisions, conflicts, learned clauses, backjumps,
	// restarts). Two runs with identical inputs produce identical hashes.
	TraceHash string `json:"trace_hash,omitempty"`

	// Per-goal search telemetry (see simplify.Stats). On a cache hit these
	// are the stored search's counters.
	Rounds           int   `json:"rounds"`
	Decisions        int   `json:"decisions"`
	CaseSplits       int   `json:"case_splits"`
	Instantiations   int   `json:"instantiations"`
	GroundClauses    int   `json:"ground_clauses"`
	CongruenceMerges int   `json:"congruence_merges"`
	FMEliminations   int   `json:"fm_eliminations"`
	TheoryChecks     int   `json:"theory_checks"`
	SearchUS         int64 `json:"search_us"`

	// CDCL telemetry (omitted when zero to keep old traces diffable): the
	// learned-lemma churn of the search.
	LearnedClauses   int `json:"learned_clauses,omitempty"`
	ForgottenClauses int `json:"forgotten_clauses,omitempty"`
	Restarts         int `json:"restarts,omitempty"`

	// Certificate telemetry (simplify.Options.EmitCertificates): steps in
	// the emitted proof, and whether it passed replay verification.
	CertSteps    int  `json:"cert_steps,omitempty"`
	CertReplayed bool `json:"cert_replayed,omitempty"`
}

// traceMu serializes trace writes: ProveAllContext discharges qualifiers
// concurrently, and each qualifier's block of records must land contiguously.
var traceMu sync.Mutex

// writeTrace emits one JSONL record per obligation result, in generation
// order, as a single contiguous block. With omitTimings the two wall-clock
// fields are zeroed, leaving only deterministic fields — two serial runs
// with fresh caches then produce byte-identical trace files.
func writeTrace(w io.Writer, r *Report, omitTimings bool) {
	traceMu.Lock()
	defer traceMu.Unlock()
	enc := json.NewEncoder(w)
	for _, res := range r.Results {
		st := res.Outcome.Stats
		rec := traceRecord{
			Qualifier:        r.Qualifier,
			Kind:             r.Kind.String(),
			Obligation:       res.Obligation.Description,
			OblKind:          res.Obligation.Kind.String(),
			Result:           res.Outcome.Result.String(),
			Valid:            res.Valid,
			Reason:           res.Outcome.Reason,
			Vacuous:          res.Obligation.Vacuous,
			CacheHit:         res.Outcome.CacheHit,
			ElapsedUS:        res.Elapsed.Microseconds(),
			TraceHash:        res.Outcome.TraceHash,
			Rounds:           st.Rounds,
			Decisions:        st.Decisions,
			CaseSplits:       st.CaseSplits,
			Instantiations:   st.Instantiations,
			GroundClauses:    st.GroundClauses,
			CongruenceMerges: st.CongruenceMerges,
			FMEliminations:   st.FMEliminations,
			TheoryChecks:     st.TheoryChecks,
			SearchUS:         st.WallTime.Microseconds(),
			LearnedClauses:   st.LearnedClauses,
			ForgottenClauses: st.ForgottenClauses,
			Restarts:         st.Restarts,
		}
		if res.Outcome.Certificate != nil {
			rec.CertSteps = len(res.Outcome.Certificate.Steps)
			// A returned certificate passed replay in this process: at
			// emission, or in the fetch gate for a cache-served outcome.
			rec.CertReplayed = true
		}
		if omitTimings {
			rec.ElapsedUS, rec.SearchUS = 0, 0
		}
		if err := enc.Encode(rec); err != nil {
			return // a broken trace sink must not fail the proof run
		}
	}
}
