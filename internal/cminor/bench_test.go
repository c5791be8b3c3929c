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
