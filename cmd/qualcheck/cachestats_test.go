package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
)

// statsFuncLineRe matches the -stats function-cache line.
var statsFuncLineRe = regexp.MustCompile(`(?m)^function cache: (\d+) hits \((\d+) from disk\), (\d+) misses, (\d+) coalesced, \d+ evictions \(([\d.]+)% hit rate\)$`)

// diskLineRe matches the -stats disk-tier line.
var diskLineRe = regexp.MustCompile(`(?m)^disk cache: (\d+) hits, (\d+) misses,`)

// runChild runs the real main with args and returns its stdout. Exit 1
// (warnings found) is the expected verdict on a generated corpus.
func runChild(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUALCHECK_SMOKE_CHILD=1")
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
		t.Fatalf("qualcheck %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestCacheStatsDiskWarm runs qualcheck -r twice on one -cache-dir. On the
// warm run nothing is parsed: the disk line counts one record hit per file
// and no miss, and -stats prints one function-cache line that counts every
// function of those files (the cold run's lookups) as a hit from disk, with
// no misses.
func TestCacheStatsDiskWarm(t *testing.T) {
	const files = 60
	dir, store := t.TempDir(), t.TempDir()
	if _, err := corpus.WriteTree(dir, files, 3); err != nil {
		t.Fatal(err)
	}
	cold := statsFuncLineRe.FindStringSubmatch(runChild(t, "-r", dir, "-cache-dir", store, "-stats"))
	if cold == nil {
		t.Fatal("cold run printed no function-cache line")
	}
	lookups := 0
	for _, n := range []string{cold[1], cold[3], cold[4]} {
		v, _ := strconv.Atoi(n)
		lookups += v
	}
	out := runChild(t, "-r", dir, "-cache-dir", store, "-stats")

	if n := strings.Count("\n"+out, "\nfunction cache:"); n != 1 {
		t.Fatalf("%d function-cache lines, want 1:\n%s", n, out)
	}
	fn := statsFuncLineRe.FindStringSubmatch(out)
	disk := diskLineRe.FindStringSubmatch(out)
	if fn == nil || disk == nil {
		t.Fatalf("missing the function-cache or disk line in:\n%s", out)
	}
	if fn[1] == "0" || fn[3] != "0" {
		t.Errorf("function-cache line %q: want hits and no misses on a warm store", fn[0])
	}
	if fn[1] != strconv.Itoa(lookups) || fn[2] != fn[1] {
		t.Errorf("function-cache line %q: want all %d functions as hits from disk", fn[0], lookups)
	}
	if disk[1] != strconv.Itoa(files) || disk[2] != "0" {
		t.Errorf("disk line %q: want one record hit per file (%d) and no miss", disk[0], files)
	}
	if rate, _ := strconv.ParseFloat(fn[5], 64); rate != 100 {
		t.Errorf("function-cache line %q: want a 100%% hit rate", fn[0])
	}
}

// counters renders one surface's function-cache counters for comparison.
func counters(hits, misses, coalesced any) string {
	return fmt.Sprintf("%v hits, %v misses, %v coalesced", hits, misses, coalesced)
}

// TestCacheCountersAgreeAcrossSurfaces reads one disk-warm store, written by
// qualcheck -r -cache-dir, through every surface that reports the function
// cache: qualcheck -r -stats, the watch daemon's generation-0 and stats
// events, and qualserve's /metrics after a /check-batch of the same files
// (qualserve keeps the checker's file records under the same <dir>/func
// layout). Each must count every function as a hit, disk-served ones
// included, and none as a miss. One worker everywhere keeps the counts free of coalescing.
func TestCacheCountersAgreeAcrossSurfaces(t *testing.T) {
	dir, store := t.TempDir(), t.TempDir()
	rels, err := corpus.WriteTree(dir, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	runChild(t, "-r", dir, "-cache-dir", store, "-j", "1")

	fn := statsFuncLineRe.FindStringSubmatch(runChild(t, "-r", dir, "-cache-dir", store, "-j", "1", "-stats"))
	if fn == nil {
		t.Fatal("qualcheck -r -stats printed no function-cache line")
	}
	want := counters(fn[1], fn[3], fn[4])
	if fn[1] == "0" || fn[2] == "0" || fn[3] != "0" {
		t.Fatalf("qualcheck -r -stats: %s (%s from disk), want disk-served hits and no misses", want, fn[2])
	}

	gen0, stats := watchCounters(t, dir, store)
	if got := counters(gen0.num("cache_hits"), gen0.num("cache_misses"), gen0.num("cache_coalesced")); got != want {
		t.Errorf("watch generation 0: %s, qualcheck -r -stats: %s", got, want)
	}
	if got := counters(stats.num("hits"), stats.num("misses"), stats.num("coalesced")); got != want {
		t.Errorf("watch stats event: %s, qualcheck -r -stats: %s", got, want)
	}

	srv := httptest.NewServer(server.New(server.Config{Workers: 1, CacheDir: store}).Handler())
	defer srv.Close()
	batch := server.CheckBatchRequest{}
	for _, rel := range rels {
		src, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		batch.Files = append(batch.Files, server.BatchInput{Filename: rel, Source: string(src)})
	}
	body, _ := json.Marshal(batch)
	resp, err := srv.Client().Post(srv.URL+"/check-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check-batch: status %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m server.MetricsResponse
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := counters(m.FuncCache.Hits, m.FuncCache.Misses, m.FuncCache.Coalesced); got != want {
		t.Errorf("qualserve /metrics func_cache: %s, qualcheck -r -stats: %s", got, want)
	}
	if m.FuncCache.HitRate != 1 {
		t.Errorf("qualserve /metrics func_cache hit_rate %v, want 1", m.FuncCache.HitRate)
	}
}

// watchCounters runs the watch daemon over dir with its function cache on
// store, and returns its generation-0 event and the function-cache counters
// of the stats event it pushes on SIGTERM.
func watchCounters(t *testing.T, dir, store string) (gen0, stats smokeEvent) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-watch", dir, "-poll", "25ms", "-j", "1", "-cache-dir", store)
	cmd.Env = append(os.Environ(), "QUALCHECK_SMOKE_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Room for every event of the run (one per file and diagnostic, plus
	// the summaries), so the reader never blocks if the test stops early.
	events := make(chan smokeEvent, 4096)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev smokeEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err == nil {
				events <- ev
			}
		}
	}()
	deadline := time.After(60 * time.Second)
	for gen0 == nil {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch child closed its event stream before generation 0")
			}
			if ev.kind() == "generation" {
				gen0 = ev
			}
		case <-deadline:
			t.Fatal("no generation-0 summary within 60s")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for ev := range events {
		if ev.kind() == "stats" {
			stats, _ = ev["func_cache"].(map[string]any)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("watch child exit: %v", err)
	}
	if stats == nil {
		t.Fatal("watch child pushed no stats event on SIGTERM")
	}
	return gen0, stats
}
