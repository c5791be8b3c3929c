package cachedisk

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

func open(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestSealUnsealRoundtrip(t *testing.T) {
	key := "fingerprint\x00goal: forall x. x = x"
	payload := []byte("verdict blob \x00\x01\x02")
	rec := Seal(key, payload)
	got, err := Unseal(rec, key)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if _, err := Unseal(rec, "other key"); err == nil {
		t.Fatal("Unseal accepted a record under the wrong key")
	}
	// Empty payloads and empty keys are legal frames.
	if _, err := Unseal(Seal("", nil), ""); err != nil {
		t.Fatalf("empty frame: %v", err)
	}
}

// TestSealPinnedBytes pins the QDSK record framing: records written by an
// earlier build must keep loading.
func TestSealPinnedBytes(t *testing.T) {
	key := "fingerprint\x00goal Δ"
	payload := []byte("QPV\x01verdict\x00\xff")
	const want = "5144534b011366696e6765727072696e7400676f616c20ce940d515056017665726469637400ffe147ba9f08055f0c"
	if got := hex.EncodeToString(Seal(key, payload)); got != want {
		t.Errorf("sealed\n got %s\nwant %s", got, want)
	}
	rec, _ := hex.DecodeString(want)
	got, err := Unseal(rec, key)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload: got %q want %q", got, payload)
	}
}

func TestUnsealRejectsEveryMutation(t *testing.T) {
	rec := Seal("k", []byte("some payload bytes"))
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x41
		if _, err := Unseal(mut, "k"); err == nil {
			t.Fatalf("byte %d flip accepted", i)
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, err := Unseal(rec[:cut], "k"); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := Unseal(append(append([]byte(nil), rec...), 0), "k"); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestPutGetAndRestartWarm(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("alpha", []byte("A"))
	s.Put("beta", []byte("B"))
	if got, ok := s.Get("alpha"); !ok || string(got) != "A" {
		t.Fatalf("Get alpha = %q, %v", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get missing hit")
	}

	// A new store over the same directory — the restart path — serves the
	// same records.
	s2 := open(t, dir, 0)
	if got, ok := s2.Get("alpha"); !ok || string(got) != "A" {
		t.Fatalf("after restart: Get alpha = %q, %v", got, ok)
	}
	if got, ok := s2.Get("beta"); !ok || string(got) != "B" {
		t.Fatalf("after restart: Get beta = %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("restart stats = %+v", st)
	}
}

func TestCorruptRecordSelfHeals(t *testing.T) {
	mutate := []struct {
		name string
		mut  func(path string, data []byte) []byte
	}{
		{"bitflip", func(_ string, d []byte) []byte { d[len(d)/2] ^= 0xff; return d }},
		{"truncated", func(_ string, d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(_ string, _ []byte) []byte { return nil }},
		{"bad-magic", func(_ string, d []byte) []byte { copy(d, "XXXX"); return d }},
		{"stale-version", func(_ string, d []byte) []byte {
			d[4] = 0xee
			// Re-checksum so only the version check can reject: a stale
			// format must be evicted even when the bytes are intact.
			return reseal(d[:len(d)-8])
		}},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 0)
			s.Put("key", []byte("payload"))
			path := filepath.Join(dir, KeyHash("key")+recExt)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(path, data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("key"); ok {
				t.Fatal("corrupt record served")
			}
			st := s.Stats()
			if st.CorruptEvicted != 1 {
				t.Fatalf("CorruptEvicted = %d, want 1 (stats %+v)", st.CorruptEvicted, st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt record not deleted: %v", err)
			}
			// The store heals: a fresh Put of the same key works again.
			s.Put("key", []byte("payload2"))
			if got, ok := s.Get("key"); !ok || string(got) != "payload2" {
				t.Fatalf("after heal: %q, %v", got, ok)
			}
		})
	}
}

// reseal recomputes the checksum trailer over body (test helper for the
// stale-version case, where the mutated body must still checksum clean).
func reseal(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.BigEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

func TestKeyCollisionRejected(t *testing.T) {
	// Write a record under key A, then rename its file to key B's content
	// address — an adversarial (or filesystem-mangled) swap. B's Get must
	// reject on the embedded-key check and evict.
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("A", []byte("a-verdict"))
	if err := os.Rename(
		filepath.Join(dir, KeyHash("A")+recExt),
		filepath.Join(dir, KeyHash("B")+recExt),
	); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	if _, ok := s2.Get("B"); ok {
		t.Fatal("mis-keyed record served under the wrong key")
	}
	if st := s2.Stats(); st.CorruptEvicted != 1 {
		t.Fatalf("CorruptEvicted = %d, want 1", st.CorruptEvicted)
	}
}

func TestBudgetLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Records are ~payload+key+16 bytes; a budget fitting roughly two
	// 100-byte payloads forces evictions on the third.
	payload := bytes.Repeat([]byte("x"), 100)
	one := int64(len(Seal("k0", payload)))
	s := open(t, dir, 2*one+one/2)
	s.Put("k0", payload)
	s.Put("k1", payload)
	if _, ok := s.Get("k0"); !ok { // touch k0 so k1 is now LRU
		t.Fatal("k0 missing before eviction")
	}
	s.Put("k2", payload)
	if st := s.Stats(); st.BudgetEvicted != 1 {
		t.Fatalf("BudgetEvicted = %d, want 1 (stats %+v)", st.BudgetEvicted, st)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("LRU record k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	// An oversized record (larger than the whole budget) is refused without
	// evicting anything.
	s.Put("huge", bytes.Repeat([]byte("y"), int(3*one)))
	if st := s.Stats(); st.BudgetEvicted != 1 || s.Len() != 2 {
		t.Fatalf("oversized Put disturbed the store: %+v len=%d", st, s.Len())
	}
}

func TestOpenEnforcesBudgetAndSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	payload := bytes.Repeat([]byte("z"), 64)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Put(k, payload)
	}
	// Leave a torn temp file as a kill -9 inside the commit window would.
	tmp := filepath.Join(dir, KeyHash("torn")+tmpExt)
	if err := os.WriteFile(tmp, []byte("half a reco"), 0o644); err != nil {
		t.Fatal(err)
	}
	one := int64(len(Seal("a", payload)))
	s2 := open(t, dir, 2*one)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file not swept at Open: %v", err)
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("entries after budget-enforcing Open = %d, want 2", got)
	}
	if st := s2.Stats(); st.BudgetEvicted != 2 {
		t.Fatalf("BudgetEvicted = %d, want 2", st.BudgetEvicted)
	}
}

func TestGetSealedByHashVerifiesAndGuardsPath(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("key", []byte("payload"))
	hash := KeyHash("key")
	rec, ok := s.GetSealedByHash(hash)
	if !ok {
		t.Fatal("sealed record missing")
	}
	if got, err := Unseal(rec, "key"); err != nil || string(got) != "payload" {
		t.Fatalf("sealed record did not verify: %q, %v", got, err)
	}
	for _, bad := range []string{"../../etc/passwd", "ABCD", "", hash + "00", hash[:31] + "Z"} {
		if _, ok := s.GetSealedByHash(bad); ok {
			t.Fatalf("hash %q accepted", bad)
		}
	}
	// Corrupt the record: the server side must refuse to propagate it.
	path := filepath.Join(dir, hash+recExt)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 1
	os.WriteFile(path, data, 0o644)
	if _, ok := s.GetSealedByHash(hash); ok {
		t.Fatal("corrupt sealed record propagated to a peer")
	}
	// Serving peers is not a lookup of this node's own: Hits and Misses
	// count Get only, while the corrupt record is still evicted and counted.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.CorruptEvicted != 1 {
		t.Fatalf("stats after serving peers: %+v, want no hit or miss and the corrupt record evicted", st)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("evicted record served")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats after a Get: %+v, want its one miss", st)
	}
}

func TestDeleteCountsCorruptEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("key", []byte("stale-payload-format"))
	s.Delete("key")
	if _, ok := s.Get("key"); ok {
		t.Fatal("deleted record served")
	}
	if st := s.Stats(); st.CorruptEvicted != 1 {
		t.Fatalf("CorruptEvicted = %d, want 1", st.CorruptEvicted)
	}
	s.Delete("never-stored") // no-op, no panic
}

func TestNilStoreIsNoop(t *testing.T) {
	var s *Store
	s.Put("k", []byte("v"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if _, ok := s.GetSealedByHash(KeyHash("k")); ok {
		t.Fatal("nil store sealed hit")
	}
	s.Delete("k")
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if s.Len() != 0 || s.Dir() != "" {
		t.Fatal("nil store len/dir")
	}
}

func TestWriteFaultsDegradeToMemoryOnly(t *testing.T) {
	defer faults.DisarmAll()
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("warm", []byte("kept"))

	if err := faults.Arm("cachedisk.write=error"); err != nil {
		t.Fatal(err)
	}
	// failureThreshold consecutive write errors open the breaker.
	for i := 0; i < failureThreshold; i++ {
		s.Put("k", []byte("dropped"))
	}
	st := s.Stats()
	if st.WriteErrors != failureThreshold || !st.Degraded {
		t.Fatalf("stats after write faults = %+v", st)
	}
	// Degraded: Gets miss without touching the disk, Puts drop silently —
	// requests keep flowing either way.
	if _, ok := s.Get("warm"); ok {
		t.Fatal("degraded store served from disk")
	}
	faults.DisarmAll()
	s.Put("k2", []byte("still dropped")) // breaker still open: no probe yet
	if _, ok := s.Get("k2"); ok {
		t.Fatal("degraded store accepted a Put")
	}

	// After the cooldown the next operation is a probe; with the fault
	// disarmed it succeeds and closes the breaker.
	s.breaker.Now = func() time.Time { return time.Now().Add(2 * reopenCooldown) }
	s.Put("healed", []byte("back"))
	st = s.Stats()
	if st.Degraded {
		t.Fatalf("breaker did not heal: %+v", st)
	}
	if got, ok := s.Get("healed"); !ok || string(got) != "back" {
		t.Fatalf("after heal: %q, %v", got, ok)
	}
	if got, ok := s.Get("warm"); !ok || string(got) != "kept" {
		t.Fatalf("pre-degrade record lost: %q, %v", got, ok)
	}
}

// TestLateSuccessKeepsBreakerOpen: a read admitted while the breaker was
// closed, and finishing cleanly after write failures opened it, says nothing
// about the disk's health now. Only a probe may close the breaker.
func TestLateSuccessKeepsBreakerOpen(t *testing.T) {
	defer faults.DisarmAll()
	s := open(t, t.TempDir(), 0)
	s.Put("k", []byte("v"))
	if err := faults.Arm("cachedisk.load=delay:500ms:limit=1"); err != nil {
		t.Fatal(err)
	}
	read := make(chan bool, 1)
	go func() {
		_, ok := s.Get("k")
		read <- ok
	}()
	for fpLoad.Fires() == 0 { // the read is admitted and held in the fault
		time.Sleep(time.Millisecond)
	}
	if err := faults.Arm("cachedisk.write=error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failureThreshold; i++ {
		s.Put("w", []byte("dropped"))
	}
	if !s.Stats().Degraded {
		t.Fatal("write failures did not open the breaker")
	}
	select {
	case <-read:
		t.Fatal("the held read finished before the breaker opened")
	default:
	}
	if ok := <-read; !ok {
		t.Fatal("the held read missed; it was admitted before the trip")
	}
	if st := s.Stats(); !st.Degraded {
		t.Fatalf("a read admitted before the trip closed the breaker: %+v", st)
	}
}

func TestLoadFaultIsMissNotCorruption(t *testing.T) {
	defer faults.DisarmAll()
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("key", []byte("payload"))
	if err := faults.Arm("cachedisk.load=error:limit=1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("faulted load served")
	}
	st := s.Stats()
	if st.LoadErrors != 1 || st.CorruptEvicted != 0 {
		t.Fatalf("stats = %+v: a load I/O error must not count as corruption", st)
	}
	// The record survives the transient error.
	if got, ok := s.Get("key"); !ok || string(got) != "payload" {
		t.Fatalf("record lost to a transient load error: %q, %v", got, ok)
	}
}

func TestEvictFaultDoesNotWedge(t *testing.T) {
	defer faults.DisarmAll()
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	one := int64(len(Seal("k0", payload)))
	s := open(t, dir, 2*one)
	s.Put("k0", payload)
	s.Put("k1", payload)
	if err := faults.Arm("cachedisk.evict=error"); err != nil {
		t.Fatal(err)
	}
	s.Put("k2", payload) // forces an eviction whose file removal fails
	st := s.Stats()
	if st.BudgetEvicted != 1 {
		t.Fatalf("BudgetEvicted = %d, want 1 (%+v)", st.BudgetEvicted, st)
	}
	if _, ok := s.Get("k0"); ok {
		t.Fatal("evicted entry still indexed despite removal failure")
	}
	// The orphaned file is re-indexed (and re-verified) by the next Open —
	// never silently trusted, never a crash.
	faults.DisarmAll()
	s2 := open(t, dir, 10*one)
	if got, ok := s2.Get("k0"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("orphaned record unreadable after reopen: %v", ok)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := strings.Repeat("k", w+1) + string(rune('a'+i%26))
				s.Put(key, []byte(key))
				if got, ok := s.Get(key); ok && string(got) != key {
					t.Errorf("wrong payload for %s: %q", key, got)
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestConcurrentPutsOfOneKey: writers committing the same key at once (two
// byte-identical files checked on two workers store one record) each write
// their own temp file, so no write fails, none is charged to the degrade
// breaker, no reader sees a torn record and no temp file is left behind.
func TestConcurrentPutsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	const key, payload = "shared", "the same record from every writer"
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Put(key, []byte(payload))
				if got, ok := s.Get(key); ok && string(got) != payload {
					t.Errorf("wrong payload %q", got)
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.WriteErrors != 0 || st.CorruptEvicted != 0 || st.Degraded || st.Entries != 1 {
		t.Fatalf("stats %+v: want 400 clean commits of one record", st)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpExt)); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if got, ok := s.Get(key); !ok || string(got) != payload {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}
