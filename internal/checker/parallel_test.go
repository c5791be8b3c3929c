package checker

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/testutil/leak"
)

// checkCorpus parses prog fresh (checking annotates the AST, so runs must
// not share one) and checks it at the given concurrency.
func checkCorpus(t *testing.T, reg *qdl.Registry, p corpus.Program, opts Options) *Result {
	t.Helper()
	prog, err := cminor.Parse(p.Name+".c", p.Source, reg.Names())
	if err != nil {
		t.Fatalf("%s: parse: %v", p.Name, err)
	}
	return CheckWith(prog, reg, opts)
}

// TestCheckWithParallelMatchesSerial is the checker's determinism contract:
// per-function parallel checking must produce the same diagnostics in the
// same source order, and the same statistics, as the serial pass. Run under
// -race it also exercises the shared engine tables concurrently.
func TestCheckWithParallelMatchesSerial(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	for _, p := range corpus.All() {
		for _, flow := range []bool{false, true} {
			serial := checkCorpus(t, reg, p, Options{FlowSensitive: flow, Concurrency: 1})
			parallel := checkCorpus(t, reg, p, Options{FlowSensitive: flow, Concurrency: 8})

			if len(serial.Diags) != len(parallel.Diags) {
				t.Errorf("%s (flow=%t): diag counts differ: serial %d, parallel %d",
					p.Name, flow, len(serial.Diags), len(parallel.Diags))
				continue
			}
			for i := range serial.Diags {
				if s, par := serial.Diags[i].String(), parallel.Diags[i].String(); s != par {
					t.Errorf("%s (flow=%t): diag %d differs:\nserial:   %s\nparallel: %s",
						p.Name, flow, i, s, par)
				}
			}
			if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
				t.Errorf("%s (flow=%t): stats differ:\nserial:   %+v\nparallel: %+v",
					p.Name, flow, serial.Stats, parallel.Stats)
			}
			if serial.ValueCasts != parallel.ValueCasts {
				t.Errorf("%s (flow=%t): cast counts differ: serial %d, parallel %d",
					p.Name, flow, serial.ValueCasts, parallel.ValueCasts)
			}
		}
	}
}

// TestCheckWithParallelTaintCorpus repeats the contract under the taint
// configuration the Table 2 experiment uses, where bftpd produces real
// warnings whose order must be stable.
func TestCheckWithParallelTaintCorpus(t *testing.T) {
	leak.Check(t)
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	p := corpus.Bftpd()
	serial := checkCorpus(t, reg, p, Options{Concurrency: 1})
	parallel := checkCorpus(t, reg, p, Options{Concurrency: 8})
	if len(serial.Diags) != len(parallel.Diags) {
		t.Fatalf("diag counts differ: serial %d, parallel %d", len(serial.Diags), len(parallel.Diags))
	}
	for i := range serial.Diags {
		if s, par := serial.Diags[i].String(), parallel.Diags[i].String(); s != par {
			t.Errorf("diag %d differs:\nserial:   %s\nparallel: %s", i, s, par)
		}
	}
	if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
		t.Errorf("stats differ:\nserial:   %+v\nparallel: %+v", serial.Stats, parallel.Stats)
	}
}

// TestCheckConcurrencyBound: CheckWith and CheckTree run on the one pool, so
// at C workers no more than C function walks run at once — and with enough
// functions, C do.
func TestCheckConcurrencyBound(t *testing.T) {
	leak.Check(t)
	const workers = 2
	var active, highWater atomic.Int64
	CheckFuncHook = func(*cminor.FuncDef) {
		n := active.Add(1)
		for hw := highWater.Load(); n > hw && !highWater.CompareAndSwap(hw, n); hw = highWater.Load() {
		}
		time.Sleep(200 * time.Microsecond) // force overlap
		active.Add(-1)
	}
	defer func() { CheckFuncHook = nil }()
	reg := quals.MustStandard()
	dir := genTree(t, 8)
	for _, tc := range []struct {
		name  string
		check func()
	}{
		{"CheckWith", func() { checkCorpus(t, reg, corpus.GrepDFA(), Options{Concurrency: workers}) }},
		{"CheckTree", func() {
			if _, err := CheckTree(context.Background(), dir, reg, TreeOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		highWater.Store(0)
		tc.check()
		if hw := highWater.Load(); hw != workers {
			t.Errorf("%s: high-water %d function walks at once, want %d", tc.name, hw, workers)
		}
	}
}
