package main

import (
	"fmt"
	"regexp"

	"repro/internal/cert"
	"repro/internal/checker"
	"repro/internal/simplify"
	"repro/internal/soundness"
)

// The oracles judge the program's answers from facts fixed before the
// program runs: what the input generator planted (read back from the
// generated text with plain regular expressions, never with the program's
// parser or checker) and the paper's known verdicts. A mismatch fails the
// op; --tamper-oracle feeds every oracle a deliberately wrong expectation
// once set-up is done, so the smoke test can prove each one is able to fail.

var (
	// funcDefRE matches a function definition header of a generated file.
	funcDefRE = regexp.MustCompile(`(?m)^(?:int|void)\s+\w+\s*\(`)
	// violateDefRE matches a function planted to violate nonnull: each
	// assigns an unqualified pointer into a nonnull global, one warning.
	violateDefRE = regexp.MustCompile(`(?m)^void\s+violate\w*\s*\(`)
)

// plantedWarnings is the number of warnings a generated file must produce.
func plantedWarnings(src string) int { return len(violateDefRE.FindAllStringIndex(src, -1)) }

// definedFuncs is the number of functions a generated file defines.
func definedFuncs(src string) int { return len(funcDefRE.FindAllStringIndex(src, -1)) }

// fileOracle maps a file name to the warning count it must produce. With
// tamper set it expects one warning too many everywhere.
type fileOracle struct {
	want   map[string]int
	tamper bool
}

func newFileOracle() *fileOracle {
	return &fileOracle{want: map[string]int{}}
}

// set records the expectation for one file from its generated text.
func (o *fileOracle) set(name, src string) {
	o.want[name] = plantedWarnings(src)
}

// checkFile compares one file's reported warning count.
func (o *fileOracle) checkFile(name string, got int) error {
	want, ok := o.want[name]
	if !ok {
		return fmt.Errorf("%s: unexpected file in the answer", name)
	}
	if o.tamper {
		want++
	}
	if got != want {
		return fmt.Errorf("%s: %d warnings, want %d planted", name, got, want)
	}
	return nil
}

// checkTree verifies a tree pass: exactly the generated files were checked
// (the decoys were skipped), none failed, and each produced exactly its
// planted warnings, every one labelled with its own file.
func (o *fileOracle) checkTree(res *checker.TreeResult) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Err != nil {
		return fmt.Errorf("pass cut short: %v", res.Err)
	}
	if len(res.Files) != len(o.want) {
		return fmt.Errorf("%d files checked, want %d", len(res.Files), len(o.want))
	}
	for _, fr := range res.Files {
		if fr.Err != nil {
			return fmt.Errorf("%s: %v", fr.File, fr.Err)
		}
		for _, d := range fr.Diags {
			if d.Pos.File != fr.File {
				return fmt.Errorf("%s: diagnostic labelled %q", fr.File, d.Pos.File)
			}
		}
		if err := o.checkFile(fr.File, len(fr.Diags)); err != nil {
			return err
		}
	}
	return nil
}

// proveSet is one registry of a prove-cold op with its known verdicts: the
// qualifiers named in unsound must fail soundness with a genuine
// (non-transient) failure, every other qualifier must be proven sound.
type proveSet struct {
	name    string
	unsound map[string]bool
}

// checkProve verifies one registry's reports against the known verdicts and
// replays every Valid obligation's certificate through cert.Verify.
func checkProve(set proveSet, reports []*soundness.Report, tamper bool) error {
	if len(reports) == 0 {
		return fmt.Errorf("%s: no reports", set.name)
	}
	for _, r := range reports {
		if r.Err != nil {
			return fmt.Errorf("%s/%s: %v", set.name, r.Qualifier, r.Err)
		}
		wantUnsound := set.unsound[r.Qualifier] != tamper
		if wantUnsound {
			failed := r.Failed()
			if len(failed) == 0 {
				return fmt.Errorf("%s/%s: proven sound, want the mutation caught", set.name, r.Qualifier)
			}
			for _, f := range failed {
				if simplify.TransientReason(f.Outcome.Reason) {
					return fmt.Errorf("%s/%s: failed for a transient reason (%s), not a counterexample",
						set.name, r.Qualifier, f.Outcome.Reason)
				}
			}
		} else if !r.Sound() {
			return fmt.Errorf("%s/%s: not proven sound", set.name, r.Qualifier)
		}
		if r.Stats.CertsRejected != 0 {
			return fmt.Errorf("%s/%s: %d certificates rejected", set.name, r.Qualifier, r.Stats.CertsRejected)
		}
		for _, res := range r.Results {
			if !res.Valid || res.Obligation.Vacuous {
				continue
			}
			c := res.Outcome.Certificate
			if c == nil {
				return fmt.Errorf("%s/%s: Valid obligation without a certificate: %s",
					set.name, r.Qualifier, res.Obligation.Description)
			}
			if err := cert.Verify(c); err != nil {
				return fmt.Errorf("%s/%s: certificate rejected: %v", set.name, r.Qualifier, err)
			}
		}
	}
	for q := range set.unsound {
		found := false
		for _, r := range reports {
			found = found || r.Qualifier == q
		}
		if !found {
			return fmt.Errorf("%s: mutated qualifier %s was not proven", set.name, q)
		}
	}
	return nil
}
