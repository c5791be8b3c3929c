package checker

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// TestTreeGolden pins the checker's complete observable output — every
// diagnostic and every statistic, memo hits and misses included — on the
// BenchmarkCheckTree corpus and on the four corpus programs, with flow
// sensitivity off and on, against testdata/tree.golden. The file was
// generated once and is compared byte for byte; a representation change in
// the checker must leave it untouched.
func TestTreeGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tree.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenReport(t, "")
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/tree.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// goldenReport renders the golden's contents. With a non-empty diskDir the
// tree is checked as a restarted process would check it: a cold pass fills
// a disk tier on diskDir, and the reported pass runs on a fresh cache over
// it, every file served from disk.
func goldenReport(t *testing.T, diskDir string) string {
	t.Helper()
	var b strings.Builder
	std := quals.MustStandard()
	taint, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := corpus.WriteTree(dir, 96, 0x7ee5eed); err != nil {
		t.Fatal(err)
	}
	for _, flow := range []bool{false, true} {
		opts := TreeOptions{Options: Options{FlowSensitive: flow}, Workers: 1, Seed: 1, Cache: NewFuncCache(0)}
		if diskDir != "" {
			opts.Cache = diskCache(t, diskDir)
			if _, err := CheckTree(context.Background(), dir, std, opts); err != nil {
				t.Fatal(err)
			}
			opts.Cache = diskCache(t, diskDir)
		}
		res, err := CheckTree(context.Background(), dir, std, opts)
		if err != nil || res.Err != nil {
			t.Fatalf("CheckTree: %v / %v", err, res.Err)
		}
		if ds := opts.Cache.DiskStats(); diskDir != "" && (ds.Misses != 0 || int(ds.Hits) != len(res.Files)) {
			t.Fatalf("disk-warm pass: %+v, want every file served from disk", ds)
		}
		for _, fr := range res.Files {
			fmt.Fprintf(&b, "== tree %s flow=%v\n", fr.File, flow)
			if fr.Err != nil {
				t.Fatalf("%s: %v", fr.File, fr.Err)
			}
			writeGoldenResult(&b, fr.Diags, fr.Stats)
		}
	}
	for _, p := range corpus.All() {
		reg := std
		if p.Name == "bftpd" {
			reg = taint
		}
		for _, flow := range []bool{false, true} {
			fmt.Fprintf(&b, "== corpus %s flow=%v\n", p.Name, flow)
			prog, res := runGolden(t, reg, p, flow)
			writeGoldenResult(&b, res.Diags, res.Stats)
			casts := 0
			tab := tablesFor(reg)
			cminor.Walk(prog, cminor.Visitor{Expr: func(e cminor.Expr) {
				if c, ok := e.(*cminor.Cast); ok && tab.valueSet(c.Type) != 0 {
					fmt.Fprintf(&b, "cast %s %s\n", c.Pos, c.Type)
					casts++
				}
			}})
			if casts != res.ValueCasts {
				t.Fatalf("%s: %d value-qualified casts in the program, Result.ValueCasts %d", p.Name, casts, res.ValueCasts)
			}
		}
	}
	return b.String()
}

func runGolden(t *testing.T, reg *qdl.Registry, p corpus.Program, flow bool) (*cminor.Program, *Result) {
	t.Helper()
	prog, err := cminor.Parse(p.Name+".c", p.Source, reg.Names())
	if err != nil {
		t.Fatalf("parse %s: %v", p.Name, err)
	}
	return prog, CheckWith(prog, reg, Options{FlowSensitive: flow, Concurrency: 1})
}

func writeGoldenResult(b *strings.Builder, diags []Diagnostic, s Stats) {
	for _, d := range diags {
		fmt.Fprintf(b, "%s\n", d)
	}
	fmt.Fprintf(b, "stats deref=%d restrict=%d/%d memo=%d/%d funccache=%d/%d/%d\n",
		s.Dereferences, s.RestrictChecks, s.RestrictFailures, s.MemoHits, s.MemoMisses,
		s.FuncCacheHits, s.FuncCacheMisses, s.FuncCacheCoalesced)
	for _, m := range []struct {
		name string
		m    map[string]int
	}{{"annotations", s.Annotations}, {"qualcasts", s.QualCasts}, {"refuses", s.RefUses}} {
		keys := make([]string, 0, len(m.m))
		for k := range m.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "%s", m.name)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%d", k, m.m[k])
		}
		b.WriteString("\n")
	}
}
