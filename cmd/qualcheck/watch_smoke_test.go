package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
)

// TestMain doubles as the smoke-test child: when re-executed with
// QUALCHECK_SMOKE_CHILD=1 the test binary runs the real main, so the smoke
// test exercises the shipped flag parsing, signal handling, and watch loop
// without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("QUALCHECK_SMOKE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeEvent is one decoded JSONL record from the watch child.
type smokeEvent map[string]any

func (e smokeEvent) kind() string { s, _ := e["event"].(string); return s }
func (e smokeEvent) str(k string) string {
	s, _ := e[k].(string)
	return s
}
func (e smokeEvent) num(k string) int {
	f, _ := e[k].(float64)
	return int(f)
}

// funcDefRe matches a top-level function definition line of the synthetic
// corpus (used to count how many FuncCache lookups a file costs).
var funcDefRe = regexp.MustCompile(`(?m)^(int|void) \w+\(.*\{$`)

// diagLineRe matches a batch-mode diagnostic line: file:line:col: [code] msg.
var diagLineRe = regexp.MustCompile(`^\S+:\d+:\d+: \[`)

// TestWatchSmoke is the end-to-end incremental contract: a watch daemon over
// a generated corpus tree, one edited function, and three assertions — the
// next generation re-checks exactly one file, its function-cache miss count is
// exactly the one edited function, and the daemon's accumulated diagnostics
// byte-match a fresh batch `qualcheck -r` of the final tree.
func TestWatchSmoke(t *testing.T) {
	dir := t.TempDir()
	rels, err := corpus.WriteTree(dir, 20, 42)
	if err != nil {
		t.Fatal(err)
	}

	// The edit target: the first file with a compute function ("return acc;"
	// appears only there), so the one-line edit below changes exactly one
	// function's content key.
	target, targetSrc := "", ""
	for _, rel := range rels {
		src, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "return acc;") {
			target, targetSrc = rel, string(src)
			break
		}
	}
	if target == "" {
		t.Fatal("no corpus file contains a compute function")
	}
	targetFuncs := len(funcDefRe.FindAllString(targetSrc, -1))
	if targetFuncs < 2 {
		t.Fatalf("target %s has %d functions, need >= 2 for a hit/miss split", target, targetFuncs)
	}

	cmd := exec.Command(os.Args[0], "-watch", dir, "-poll", "25ms")
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

	// state accumulates the daemon's view: per-file diag lines rendered the
	// way batch mode prints them.
	state := map[string][]string{}
	nextGen := func() smokeEvent {
		t.Helper()
		deadline := time.After(60 * time.Second)
		var pendingFile string
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					t.Fatal("watch child closed its event stream")
				}
				switch ev.kind() {
				case "file":
					pendingFile = ev.str("file")
					state[pendingFile] = nil
				case "diag":
					state[pendingFile] = append(state[pendingFile],
						fmt.Sprintf("%s:%d:%d: [%s] %s",
							ev.str("file"), ev.num("line"), ev.num("col"),
							ev.str("qualifier"), ev.str("message")))
				case "remove":
					delete(state, ev.str("file"))
				case "generation":
					return ev
				}
			case <-deadline:
				t.Fatal("no generation summary within 60s")
			}
		}
	}

	g0 := nextGen()
	if g0.num("checked") != len(rels) {
		t.Fatalf("startup generation checked %d files, want %d: %v", g0.num("checked"), len(rels), g0)
	}

	// The edit: one function body changes (atomic rename, as editors save).
	edited := strings.Replace(targetSrc, "return acc;", "return acc + acc;", 1)
	full := filepath.Join(dir, filepath.FromSlash(target))
	tmp := full + ".tmp-edit"
	if err := os.WriteFile(tmp, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, full); err != nil {
		t.Fatal(err)
	}

	g1 := nextGen()
	if g1.num("checked") != 1 {
		t.Fatalf("edit generation re-checked %d files, want exactly 1: %v", g1.num("checked"), g1)
	}
	if g1.num("cache_misses") != 1 || g1.num("cache_hits") != targetFuncs-1 {
		t.Fatalf("cache delta %d misses / %d hits, want 1 / %d (only the edited function re-checks): %v",
			g1.num("cache_misses"), g1.num("cache_hits"), targetFuncs-1, g1)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for range events {
	} // drain the exit stats event until EOF
	if err := cmd.Wait(); err != nil {
		t.Fatalf("watch child exit: %v", err)
	}

	// Ground truth: a fresh batch run over the final tree must agree with the
	// daemon's accumulated diagnostics byte for byte.
	batch := exec.Command(os.Args[0], "-r", dir)
	batch.Env = append(os.Environ(), "QUALCHECK_SMOKE_CHILD=1")
	out, err := batch.Output()
	if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
		t.Fatalf("batch run: %v\n%s", err, out)
	}
	var want []string
	for _, line := range strings.Split(string(out), "\n") {
		if diagLineRe.MatchString(line) {
			want = append(want, line)
		}
	}
	var got []string
	for _, diags := range state {
		got = append(got, diags...)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("daemon state diverges from a fresh batch run\ndaemon:\n%s\nbatch:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
