package qdl

import (
	"sync"
	"testing"
)

func fingerprintRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := Load(map[string]string{
		"pos.qdl":     posSrc,
		"neg.qdl":     negSrc,
		"nonzero.qdl": nonzeroSrc,
		"unique.qdl":  uniqueSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestFingerprintComputedOnce: after the first call, Fingerprint returns the
// stored hash without re-serializing the definitions.
func TestFingerprintComputedOnce(t *testing.T) {
	reg := fingerprintRegistry(t)
	first := reg.Fingerprint()
	if n := testing.AllocsPerRun(10, func() { reg.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint after its first call: %v allocations per run, want 0", n)
	}
	if got := reg.Fingerprint(); got != first {
		t.Errorf("second call = %s, first = %s", got, first)
	}
}

// TestFingerprintAfterAdd: Add drops the stored hash, and the recomputed one
// equals that of a fresh registry holding the same definitions.
func TestFingerprintAfterAdd(t *testing.T) {
	reg := fingerprintRegistry(t)
	before := reg.Fingerprint()
	d, err := ParseOne("nonnull.qdl", nonnullSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(d); err != nil {
		t.Fatal(err)
	}
	after := reg.Fingerprint()
	if after == before {
		t.Fatal("Fingerprint did not change after Add")
	}
	fresh := NewRegistry()
	for _, d := range reg.Defs() {
		if err := fresh.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh.Fingerprint(); got != after {
		t.Errorf("after Add = %s, fresh registry with the same definitions = %s", after, got)
	}
}

// TestFingerprintConcurrent: goroutines racing on a fresh registry's first
// call all get the same hash (run under -race to check the synchronisation).
func TestFingerprintConcurrent(t *testing.T) {
	want := fingerprintRegistry(t).Fingerprint()
	reg := fingerprintRegistry(t)
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = reg.Fingerprint()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: %s, want %s", i, g, want)
		}
	}
}
