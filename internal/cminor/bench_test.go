package cminor_test

import (
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/quals"
)

// benchSources returns the sources of the BenchmarkCheckTree corpus
// (internal/checker): 96 generated files, seed 0x7ee5eed.
func benchSources() []string {
	srcs := make([]string, 96)
	for i := range srcs {
		srcs[i] = corpus.TreeFile(0x7ee5eed, i)
	}
	return srcs
}

// BenchmarkParse measures Parse alone over the BenchmarkCheckTree corpus.
func BenchmarkParse(b *testing.B) {
	names := quals.MustStandard().Names()
	srcs := benchSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			if _, err := cminor.Parse(corpus.TreeFileName(j), src, names); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTypeCheck measures the base typechecker alone over the
// BenchmarkCheckTree corpus; parsing happens before the timer starts.
func BenchmarkTypeCheck(b *testing.B) {
	names := quals.MustStandard().Names()
	var progs []*cminor.Program
	for j, src := range benchSources() {
		prog, err := cminor.Parse(corpus.TreeFileName(j), src, names)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			cminor.TypeCheck(prog)
		}
	}
}

// parseAllocCeiling bounds Parse's allocations on the grep-dfa corpus
// program: 4,001 at the last measurement, plus a small margin. Allocation
// counts do not depend on host load, so this catches a parser allocation
// regression that a timing benchmark on a busy host would not.
const parseAllocCeiling = 4100

// TestParseAllocs holds Parse of one fixed corpus file under
// parseAllocCeiling allocations.
func TestParseAllocs(t *testing.T) {
	names := quals.MustStandard().Names()
	src := corpus.GrepDFA().Source
	n := testing.AllocsPerRun(20, func() {
		if _, err := cminor.Parse("grep-dfa.c", src, names); err != nil {
			t.Fatal(err)
		}
	})
	if n > parseAllocCeiling {
		t.Errorf("Parse of grep-dfa.c: %v allocations, ceiling %d", n, parseAllocCeiling)
	}
}
