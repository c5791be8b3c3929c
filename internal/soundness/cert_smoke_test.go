package soundness

import (
	"testing"

	"repro/internal/cert"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
)

// TestCertificateSmoke proves the entire shipped qualifier suite (standard
// pack plus extras) with certificate emission on: every Valid obligation
// must carry a certificate that the independent replay checker accepts, and
// the run must reject nothing. This is the end-to-end exercise of emission
// from the CDCL trail on the paper's own obligations; `make cert-smoke`
// runs exactly this test.
func TestCertificateSmoke(t *testing.T) {
	reg, err := qdl.Load(quals.FileContents())
	if err != nil {
		t.Fatal(err)
	}
	before := simplify.GlobalCertCounters()
	opts := DefaultOptions()
	opts.Prover.EmitCertificates = true
	reports, err := ProveAll(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for _, r := range reports {
		for _, res := range r.Results {
			if !res.Valid || res.Obligation.Vacuous {
				continue
			}
			if res.Outcome.Certificate == nil {
				t.Errorf("%s: %s: Valid without a certificate (%q)",
					r.Qualifier, res.Obligation.Description, res.Outcome.Reason)
				continue
			}
			if err := cert.Verify(res.Outcome.Certificate); err != nil {
				t.Errorf("%s: %s: independent replay rejected: %v",
					r.Qualifier, res.Obligation.Description, err)
			}
			emitted++
		}
	}
	if emitted == 0 {
		t.Fatal("no certificates emitted across the qualifier suite")
	}
	if after := simplify.GlobalCertCounters(); after.Rejected != before.Rejected {
		t.Errorf("suite emission rejected %d certificates, want 0", after.Rejected-before.Rejected)
	}
	t.Logf("qualifier suite: %d Valid obligations, every certificate replayed", emitted)
}
