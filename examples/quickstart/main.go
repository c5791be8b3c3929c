// Quickstart: the full semantic-type-qualifier pipeline on the paper's
// running example (figures 1 and 2).
//
//  1. Define the pos and neg qualifiers in the qualifier definition
//     language, with their type rules and run-time invariants.
//  2. Let the soundness checker prove the type rules correct, once, for all
//     programs.
//  3. Typecheck the lcm program against the rules.
//  4. Run it: the cast the programmer inserted carries an instrumented
//     run-time check of pos's invariant.
//  5. Mutate the multiplication rule into subtraction and watch the
//     soundness checker reject it.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/interp"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/soundness"
)

const lcmProgram = `
int printf(char* format, ...);

int pos gcd(int pos a, int pos b) {
  int n = a;
  int m = b;
  while (m != 0) {
    int t = m;
    /* the loop guard ensures m != 0, but the type system is
       flow-insensitive: cast, with a run-time check (section 2.1.3) */
    m = n % (int nonzero) m;
    n = t;
  }
  return (int pos) n;
}

int pos lcm(int pos a, int pos b) {
  int pos d;
  d = gcd(a, b);
  int pos prod = a * b;
  return (int pos) (prod / d);
}

int main() {
  int r;
  r = lcm(4, 6);
  printf("lcm(4, 6) = %d\n", r);
  r = lcm(21, 6);
  printf("lcm(21, 6) = %d\n", r);
  return 0;
}
`

func main() {
	// Step 1: load qualifier definitions (figure 1 plus neg and nonzero,
	// which pos's rules and the division restrict reference).
	reg, err := qdl.Load(map[string]string{
		"pos.qdl":     quals.Pos,
		"neg.qdl":     quals.Neg,
		"nonzero.qdl": quals.Nonzero,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== qualifier definitions ==")
	fmt.Print(reg.Lookup("pos"))

	// Step 2: prove the type rules sound, independent of any program.
	fmt.Println("\n== automated soundness checking ==")
	for _, name := range []string{"pos", "neg", "nonzero"} {
		report, err := soundness.Prove(reg.Lookup(name), reg, soundness.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(report)
	}

	// Step 3: typecheck figure 2's lcm against the rules.
	fmt.Println("\n== extensible typechecking ==")
	prog, err := cminor.Parse("lcm.c", lcmProgram, reg.Names())
	if err != nil {
		log.Fatal(err)
	}
	res := checker.Check(prog, reg)
	for _, d := range res.Diags {
		fmt.Println(d)
	}
	fmt.Printf("lcm.c: %d warning(s), %d value-qualified cast(s)\n",
		len(res.Diags), res.ValueCasts)

	// Step 4: run with instrumented checks.
	fmt.Println("\n== instrumented execution ==")
	out, err := interp.Run(prog, reg, interp.Options{RuntimeChecks: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Output)

	// Step 5: the paper's broken rule — E1 - E2 instead of E1 * E2 — is
	// caught before any program ever runs.
	fmt.Println("\n== a broken rule is rejected ==")
	brokenReg, err := qdl.Load(map[string]string{
		"pos.qdl": strings.Replace(quals.Pos, "E1 * E2", "E1 - E2", 1),
		"neg.qdl": quals.Neg,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := soundness.Prove(brokenReg.Lookup("pos"), brokenReg, soundness.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
	if !report.Sound() {
		fmt.Println("the soundness checker caught the subtraction rule, as in section 2.1.3")
	}
}
