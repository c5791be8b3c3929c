package checker_test

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/quals"
)

// ExampleCheck typechecks figure 2's lcm against the standard qualifier
// library: the cast the programmer wrote is the only concession the
// flow-insensitive type system needs.
func ExampleCheck() {
	reg := quals.MustStandard()
	src := `
int pos gcd(int pos n, int pos m);
int pos lcm(int pos a, int pos b) {
  int pos d;
  d = gcd(a, b);
  int pos prod = a * b;
  return (int pos) (prod / d);
}
`
	prog, err := cminor.Parse("lcm.c", src, reg.Names())
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	res := checker.Check(prog, reg)
	fmt.Println("warnings:", len(res.Diags))
	fmt.Println("value-qualified casts:", res.ValueCasts)
	// Output:
	// warnings: 0
	// value-qualified casts: 1
}

// ExampleCheckWith demonstrates the flow-sensitivity extension: the NULL
// test makes the dereference safe without a cast.
func ExampleCheckWith() {
	reg := quals.MustStandard()
	src := `
int f(int* p) {
  if (p == NULL) {
    return 0;
  }
  return *p;
}
`
	prog, err := cminor.Parse("guarded.c", src, reg.Names())
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	insensitive := checker.CheckWith(prog, reg, checker.Options{FlowSensitive: false})
	prog2, _ := cminor.Parse("guarded.c", src, reg.Names())
	sensitive := checker.CheckWith(prog2, reg, checker.Options{FlowSensitive: true})
	fmt.Println("flow-insensitive warnings:", len(insensitive.Diags))
	fmt.Println("flow-sensitive warnings:", len(sensitive.Diags))
	// Output:
	// flow-insensitive warnings: 1
	// flow-sensitive warnings: 0
}

// ExampleInfer shows the qualifier-inference extension recovering the
// annotations an unannotated program needs.
func ExampleInfer() {
	reg := quals.MustStandard()
	src := `
int pos double_it(int pos v);
void f() {
  int w = 21;
  int r;
  r = double_it(w);
}
`
	prog, err := cminor.Parse("f.c", src, reg.Names())
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	inferred, err := checker.Infer(prog, reg, []string{"pos"})
	if err != nil {
		fmt.Println("infer:", err)
		return
	}
	for _, a := range inferred {
		fmt.Printf("%s %s: %s\n", a.Where, a.Var, a.Qual)
	}
	fmt.Println("warnings after:", len(checker.Check(prog, reg).Diags))
	// Output:
	// local w: pos
	// local r: pos
	// warnings after: 0
}
