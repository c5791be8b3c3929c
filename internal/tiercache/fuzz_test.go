package tiercache_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/logic"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/tiercache"
)

// FuzzPayloadDecoders feeds arbitrary bytes to both payload decoders, the
// prover's outcome records (QPV) and the checker's file records (QFR), and to
// the record framing around them (cachedisk's QDSK). Their input comes from
// disk (and, for outcomes, from peers), so none may panic, and any value a
// decoder accepts must survive encode→decode unchanged. The same bytes, as a
// payload, must come back unchanged from Unseal(Seal(k, data), k) and be
// refused under any other key.
func FuzzPayloadDecoders(f *testing.F) {
	prover, records := seedCaches(f)
	for _, out := range values(prover) {
		f.Add(prover.Codec().Encode(out))
	}
	for _, rec := range records {
		payload, err := cachedisk.Unseal(rec, "")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(rec)
	}
	const key = "fuzz key"
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, prover.Codec(), data)
		roundTrip(t, checker.FileRecordCodec, data)
		cachedisk.Unseal(data, "")
		cachedisk.Unseal(data, key)

		rec := cachedisk.Seal(key, data)
		got, err := cachedisk.Unseal(rec, key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Unseal(Seal(k, %x), k) = %x, %v", data, got, err)
		}
		for _, other := range []string{"fuzz ke", "fuzz keY", key + "\x00", string(data)} {
			if other == "" || other == key {
				continue
			}
			if _, err := cachedisk.Unseal(rec, other); err == nil {
				t.Fatalf("record sealed under %q unsealed under %q", key, other)
			}
		}
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

// seedCaches fills a prover cache with real values, a certified Valid and an
// Unknown with a counter-example, and checks two files, one clean and one
// with diagnostics, through a function cache's disk tier. It returns the
// prover cache and the two sealed file records.
func seedCaches(f *testing.F) (*simplify.Cache, [][]byte) {
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

	reg := quals.MustStandard()
	dir := f.TempDir()
	store, err := cachedisk.Open(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	funcs := checker.NewFuncCache(0).WithDisk(store)
	for _, src := range []string{
		"int* nonnull g;\nvoid clean() {\n  int x = 1;\n}\n",
		"int* nonnull g;\nvoid leak(int* p) {\n  g = p;\n}\n",
	} {
		if _, err := checker.CheckSource(context.Background(), "seed.c", src, reg, checker.Options{}, funcs); err != nil {
			f.Fatal(err)
		}
	}
	records, err := filepath.Glob(filepath.Join(dir, "*.qc"))
	if err != nil {
		f.Fatal(err)
	}
	sort.Strings(records)
	var raws [][]byte
	for _, path := range records {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		raws = append(raws, raw)
	}
	if prover.Len() != 2 || len(raws) != 2 {
		f.Fatalf("seeded %d outcomes and %d file records, want 2 and 2", prover.Len(), len(raws))
	}
	return prover, raws
}
