package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/corpus"
)

// statsFuncLineRe matches the -stats function-cache line.
var statsFuncLineRe = regexp.MustCompile(`(?m)^function cache: (\d+) hits, (\d+) misses, (\d+) coalesced$`)

// cacheStatsFuncLineRe matches the -cache-stats function-cache line.
var cacheStatsFuncLineRe = regexp.MustCompile(`(?m)^function cache: (\d+) hits \((\d+) from disk\), (\d+) misses, (\d+) coalesced, \d+ evictions \(([\d.]+)% hit rate\)$`)

// diskLineRe matches the -cache-stats disk-tier line.
var diskLineRe = regexp.MustCompile(`(?m)^disk cache: (\d+) hits, (\d+) misses,`)

// TestCacheStatsDiskWarm runs qualcheck -r twice on one -cache-dir. On the
// warm run nothing is walked, and the -stats and -cache-stats lines must
// agree: every lookup is a hit, the ones the disk served included, and
// there are no misses.
func TestCacheStatsDiskWarm(t *testing.T) {
	dir, store := t.TempDir(), t.TempDir()
	if _, err := corpus.WriteTree(dir, 60, 3); err != nil {
		t.Fatal(err)
	}
	run := func() string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-r", dir, "-cache-dir", store, "-stats", "-cache-stats")
		cmd.Env = append(os.Environ(), "QUALCHECK_SMOKE_CHILD=1")
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
			t.Fatalf("qualcheck -r: %v\n%s", err, out)
		}
		return string(out)
	}
	run()
	out := run()

	stats := statsFuncLineRe.FindStringSubmatch(out)
	cache := cacheStatsFuncLineRe.FindStringSubmatch(out)
	disk := diskLineRe.FindStringSubmatch(out)
	if stats == nil || cache == nil || disk == nil {
		t.Fatalf("missing a function-cache or disk line in:\n%s", out)
	}
	if stats[2] != "0" || stats[1] == "0" {
		t.Errorf("-stats line %q: want hits and no misses on a warm store", stats[0])
	}
	if cache[1] != stats[1] || cache[3] != stats[2] || cache[4] != stats[3] {
		t.Errorf("-cache-stats line %q disagrees with -stats line %q", cache[0], stats[0])
	}
	if cache[2] != disk[1] || disk[1] == "0" {
		t.Errorf("-cache-stats line %q: want the disk hits of %q", cache[0], disk[0])
	}
	if rate, _ := strconv.ParseFloat(cache[5], 64); rate != 100 {
		t.Errorf("-cache-stats line %q: want a 100%% hit rate", cache[0])
	}
}
