package cminor

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParse is the native fuzz target for the C-minor front end: any byte
// string must either parse (and then survive typechecking and printing) or
// return an error — never panic. What parses must also print to source that
// parses back to a program printing the same text, with the same string and
// character literal values (the oracle TestParsePrintRoundTripProperty
// states for generated programs). `make fuzz-smoke` runs it for a short
// budget; without -fuzz it replays the seed corpus as a regression test.
func FuzzParse(f *testing.F) {
	f.Add(`int main() { return 0; }`)
	f.Add(`
struct s { int x; int* next; };
int* unique g;
int f(int* nonnull p, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += p[i];
  if (s > 0 && p != NULL) return *p;
  return (int)(s / 2);
}
`)
	f.Add(`int pos g = 1; int main() { int pos x = (int pos) g; return x; }`)
	f.Add(`int main() { while (1) { if (0) break; } return 0; }`)
	f.Add(`struct t { struct t* next; }; void walk(struct t* nonnull p) { *&p; }`)
	f.Add("int main() { return \x00; }")
	f.Add(`char* s = "\0\t\\\"'"; int main() { int c = -'a'; c = '\''; return c; }`)
	quals := map[string]bool{"nonnull": true, "unique": true, "pos": true}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz.c", src, quals)
		if err != nil {
			return
		}
		// Whatever parsed must survive the rest of the front end.
		TypeCheck(prog)
		out := Print(prog)
		again, err := Parse("printed.c", out, quals)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, out)
		}
		if out2 := Print(again); out2 != out {
			t.Fatalf("print not stable:\n%s\nvs\n%s", out, out2)
		}
		if a, b := literals(prog), literals(again); a != b {
			t.Fatalf("literals changed in print: %s vs %s", a, b)
		}
		// Every function's recorded text is a piece of the source ending
		// in its closing brace, or in a prototype's ';'.
		for _, fn := range prog.Funcs {
			end := "}"
			if fn.Body == nil {
				end = ";"
			}
			if !strings.Contains(src, fn.Src) || !strings.HasSuffix(fn.Src, end) {
				t.Errorf("%s.Src = %q: not source text ending in %q", fn.Name, fn.Src, end)
			}
		}
	})
}

// literals lists the program's string and character literal values in
// source order.
func literals(p *Program) string {
	var sb strings.Builder
	Walk(p, Visitor{Expr: func(e Expr) {
		switch e := e.(type) {
		case *StrLit:
			fmt.Fprintf(&sb, "%q ", e.Value)
		case *IntLit:
			if e.IsChar {
				fmt.Fprintf(&sb, "char %d ", e.Value)
			}
		}
	}})
	return sb.String()
}
