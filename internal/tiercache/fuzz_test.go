package tiercache_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/logic"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/tiercache"
)

// FuzzPayloadDecoders feeds arbitrary bytes to both payload decoders, the
// prover's outcome records (QPV) and the function cache's entries (QFE).
// Their input comes from disk (and, for outcomes, from peers), so neither may
// panic, and any value a decoder accepts must survive encode→decode
// unchanged.
func FuzzPayloadDecoders(f *testing.F) {
	prover, funcs, funcPayloads := seedCaches(f)
	for _, out := range values(prover) {
		f.Add(prover.Codec().Encode(out))
	}
	for _, payload := range funcPayloads {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, prover.Codec(), data)
		roundTrip(t, funcs.Codec(), data)
	})
}

func roundTrip[V any](t *testing.T, c tiercache.Codec[V], data []byte) {
	v, err := c.Decode(data)
	if err != nil {
		return
	}
	again, err := c.Decode(c.Encode(v))
	if err != nil {
		t.Fatalf("re-decoding an accepted value: %v", err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("value changed across encode→decode:\n got %#v\nwant %#v", again, v)
	}
}

func values[V any](c *tiercache.Cache[V]) []V {
	var vs []V
	c.ForEach(func(_ string, v V) { vs = append(vs, v) })
	return vs
}

// seedCaches fills a prover cache and a function cache with real values: a
// certified Valid, an Unknown with a counter-example, and function entries
// with and without diagnostics. The function entries are returned as the
// payloads their disk tier persisted.
func seedCaches(f *testing.F) (*simplify.Cache, *checker.FuncCache, [][]byte) {
	opts := simplify.DefaultOptions()
	opts.EmitCertificates = true
	prover := simplify.NewCache(0)
	p := simplify.New(nil, opts).WithCache(prover)
	for _, g := range []string{
		"(IMPLIES (AND (> x 0) (>= y x)) (> y 0))",
		"(IMPLIES (EQ (f a) (f b)) (EQ a b))",
	} {
		goal, err := logic.ParseFormula(g)
		if err != nil {
			f.Fatal(err)
		}
		p.Prove(goal)
	}

	const src = `
int* nonnull g;
void clean() {
  int x = 1;
}
void leak(int* p) {
  g = p;
}
`
	reg := quals.MustStandard()
	prog, err := cminor.Parse("seed.c", src, reg.Names())
	if err != nil {
		f.Fatal(err)
	}
	store, err := cachedisk.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	funcs := checker.NewFuncCache(0).WithDisk(store)
	checker.CheckWithCache(context.Background(), prog, reg, checker.Options{}, funcs)
	var payloads [][]byte
	funcs.ForEach(func(key string, _ []string) {
		if payload, ok := store.Get(key); ok {
			payloads = append(payloads, payload)
		}
	})
	if prover.Len() != 2 || len(payloads) != 2 {
		f.Fatalf("seeded %d outcomes and %d function entries, want 2 and 2", prover.Len(), len(payloads))
	}
	return prover, funcs, payloads
}
