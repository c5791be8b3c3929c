package checker

import (
	"context"
	"os"
	"runtime"
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/input"
	"repro/internal/quals"
)

// BenchmarkCheckTree measures cold repo-scale checking throughput over the
// work-stealing scheduler: every iteration re-checks the same generated
// multi-file corpus with a fresh function cache, so the number is the
// walk+read+parse+check pipeline, not cache replay. The j1/jmax pair keeps
// the serial-vs-parallel ratio visible in BENCH_tree.json on any machine
// (jmax runs NumCPU workers; on a single-core box the two coincide).
func BenchmarkCheckTree(b *testing.B) {
	reg := quals.MustStandard()
	dir := b.TempDir()
	const files = 96
	if _, err := corpus.WriteTree(dir, files, 0x7ee5eed); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"j1", 1},
		{"jmax", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := CheckTree(context.Background(), dir, reg, TreeOptions{
					Workers: bc.workers,
					Seed:    1,
					Cache:   NewFuncCache(0),
				})
				if err != nil || res.Err != nil {
					b.Fatalf("CheckTree: %v / %v", err, res.Err)
				}
				if len(res.Files) != files {
					b.Fatalf("checked %d files, want %d", len(res.Files), files)
				}
			}
			b.ReportMetric(float64(files)*float64(b.N)/b.Elapsed().Seconds(), "files/s")
		})
	}
}

// funcKeySink keeps BenchmarkFuncKey's calls from being optimised away.
var funcKeySink string

// BenchmarkFuncKey measures function-key derivation alone: funcKey over
// every function of the BenchmarkCheckTree corpus, each under its own
// file's context key. Parsing and context keys are built outside the timer.
func BenchmarkFuncKey(b *testing.B) {
	reg := quals.MustStandard()
	dir := b.TempDir()
	if _, err := corpus.WriteTree(dir, 96, 0x7ee5eed); err != nil {
		b.Fatal(err)
	}
	files, _, err := input.Walk(dir, input.WalkOptions{})
	if err != nil {
		b.Fatal(err)
	}
	type unit struct {
		ctxKey string
		f      *cminor.FuncDef
	}
	var units []unit
	for _, file := range files {
		src, err := os.ReadFile(file.Path)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := cminor.Parse(file.Rel, string(src), reg.Names())
		if err != nil {
			b.Fatal(err)
		}
		ctxKey := newEngine(context.Background(), prog, compileTables(reg), Options{}, NewFuncCache(0)).ctxKey
		for _, f := range prog.Funcs {
			units = append(units, unit{ctxKey, f})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			funcKeySink = funcKey(u.ctxKey, u.f)
		}
	}
	b.ReportMetric(float64(len(units)), "funcs/op")
}

// BenchmarkFuncWalk measures the qualifier checker alone: CheckWithCache over
// every program of the BenchmarkCheckTree corpus with its base type
// information precomputed, no function cache, and one worker, so the number
// is the per-function walks plus the program-level passes around them.
// Parsing and typechecking happen before the timer starts.
func BenchmarkFuncWalk(b *testing.B) {
	reg := quals.MustStandard()
	type unit struct {
		prog  *cminor.Program
		info  *cminor.TypeInfo
		diags []cminor.Diagnostic
	}
	var units []unit
	for i := 0; i < 96; i++ {
		prog, err := cminor.Parse(corpus.TreeFileName(i), corpus.TreeFile(0x7ee5eed, i), reg.Names())
		if err != nil {
			b.Fatal(err)
		}
		info, diags := cminor.TypeCheck(prog)
		units = append(units, unit{prog, info, diags})
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			res := CheckWithCache(ctx, u.prog, reg, Options{Types: u.info, TypeDiags: u.diags, Concurrency: 1}, nil)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}
