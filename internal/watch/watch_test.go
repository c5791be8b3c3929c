package watch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/quals"
)

// write places body at root/rel atomically (temp file + rename), the way
// editors save — a polling rescan can never observe a half-written file.
func write(t *testing.T, root, rel, body string) {
	t.Helper()
	full := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := full + ".tmp-write"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, full); err != nil {
		t.Fatal(err)
	}
}

// event is one decoded JSONL record; tests key on the "event" field.
type event map[string]any

func (e event) kind() string { s, _ := e["event"].(string); return s }
func (e event) file() string { s, _ := e["file"].(string); return s }
func (e event) num(k string) int {
	f, _ := e[k].(float64)
	return int(f)
}

// harness runs a daemon against a pipe and exposes its event stream.
type harness struct {
	t      *testing.T
	events chan event
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(t *testing.T, root string, opts Options) *harness {
	t.Helper()
	pr, pw := io.Pipe()
	opts.Out = pw
	d, err := New(root, quals.MustStandard(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- d.Run(ctx)
		pw.Close()
	}()
	events := make(chan event, 1024)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Errorf("bad JSONL line %q: %v", sc.Text(), err)
				continue
			}
			events <- ev
		}
	}()
	h := &harness{t: t, events: events, cancel: cancel, done: done}
	t.Cleanup(h.stop)
	return h
}

func (h *harness) stop() {
	h.cancel()
	select {
	case err := <-h.done:
		if err != nil && err != context.Canceled {
			h.t.Errorf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		h.t.Error("daemon did not stop within 10s")
	}
	for range h.events {
	} // drain until the pipe closes
}

// generation holds one generation's events: the closing summary plus the
// file/diag/remove records that preceded it.
type generation struct {
	summary event
	pre     []event
}

// diags returns the generation's diag events for rel, rendered as the CLI
// would print them.
func (g *generation) diags(rel string) []string {
	var out []string
	for _, ev := range g.pre {
		if ev.kind() == "diag" && ev.file() == rel {
			out = append(out, fmt.Sprintf("%s:%d:%d: [%s] %s",
				ev.file(), ev.num("line"), ev.num("col"), ev["qualifier"], ev["message"]))
		}
	}
	return out
}

// nextGeneration reads events until a generation summary arrives.
func (h *harness) nextGeneration(timeout time.Duration) *generation {
	h.t.Helper()
	g := &generation{}
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-h.events:
			if !ok {
				h.t.Fatal("event stream closed before a generation summary")
			}
			switch ev.kind() {
			case "generation":
				g.summary = ev
				return g
			case "stats":
				// interleaved telemetry; not part of the generation
			default:
				g.pre = append(g.pre, ev)
			}
		case <-deadline:
			h.t.Fatalf("no generation summary within %v (collected %d events)", timeout, len(g.pre))
		}
	}
}

const cleanFile = `
int add(int a, int b) {
  return a + b;
}
int twice(int a) {
  return a + a;
}
`

const dirtyFile = `
int* nonnull g;

int keep(int a) {
  return a;
}
void violate(int* p) {
  g = p;
}
`

func TestDaemonStartupGeneration(t *testing.T) {
	root := t.TempDir()
	write(t, root, "pkg/clean.c", cleanFile)
	write(t, root, "pkg/dirty.c", dirtyFile)

	h := startDaemon(t, root, Options{Poll: 20 * time.Millisecond, Workers: 2, Seed: 1})
	g := h.nextGeneration(20 * time.Second)
	if g.summary.num("generation") != 0 || g.summary.num("checked") != 2 || g.summary.num("files") != 2 {
		t.Fatalf("startup summary: %v", g.summary)
	}
	if g.summary["status"] != "dirty" || g.summary.num("total_warnings") != 1 {
		t.Errorf("startup verdict: %v", g.summary)
	}
	if got := g.diags("pkg/dirty.c"); len(got) != 1 || !strings.Contains(got[0], "nonnull") {
		t.Errorf("dirty.c diags: %v", got)
	}
	if got := g.diags("pkg/clean.c"); len(got) != 0 {
		t.Errorf("clean.c diags: %v", got)
	}
}

// TestDaemonIncrementalEdit is the tentpole claim: editing one function in
// one file re-checks that file only, and within it only the edited function
// misses the cache.
func TestDaemonIncrementalEdit(t *testing.T) {
	root := t.TempDir()
	write(t, root, "pkg/clean.c", cleanFile)
	write(t, root, "pkg/dirty.c", dirtyFile)

	h := startDaemon(t, root, Options{Poll: 20 * time.Millisecond, Workers: 2, Seed: 1})
	h.nextGeneration(20 * time.Second)

	// Edit keep's body only; violate (and all of clean.c) must replay.
	write(t, root, "pkg/dirty.c", strings.Replace(dirtyFile, "return a;", "return a + 1;", 1))
	g := h.nextGeneration(20 * time.Second)
	if g.summary.num("checked") != 1 {
		t.Fatalf("edit re-checked %d files, want 1: %v", g.summary.num("checked"), g.summary)
	}
	if g.summary.num("cache_misses") != 1 || g.summary.num("cache_hits") != 1 {
		t.Errorf("cache delta: %d misses / %d hits, want 1 / 1 (only the edited function re-walks)",
			g.summary.num("cache_misses"), g.summary.num("cache_hits"))
	}
	if g.summary["status"] != "dirty" || g.summary.num("total_warnings") != 1 {
		t.Errorf("post-edit verdict: %v", g.summary)
	}

	// Fixing the violation flips the tree clean.
	write(t, root, "pkg/dirty.c", strings.Replace(dirtyFile, "g = p;", "", 1))
	g = h.nextGeneration(20 * time.Second)
	if g.summary["status"] != "clean" || g.summary.num("total_warnings") != 0 {
		t.Errorf("fixed-tree verdict: %v", g.summary)
	}
}

func TestDaemonAddRemove(t *testing.T) {
	root := t.TempDir()
	write(t, root, "a.c", cleanFile)

	h := startDaemon(t, root, Options{Poll: 20 * time.Millisecond, Workers: 2, Seed: 1})
	h.nextGeneration(20 * time.Second)

	write(t, root, "b.c", dirtyFile)
	g := h.nextGeneration(20 * time.Second)
	if g.summary.num("checked") != 1 || g.summary.num("files") != 2 || g.summary["status"] != "dirty" {
		t.Fatalf("add generation: %v", g.summary)
	}

	if err := os.Remove(filepath.Join(root, "b.c")); err != nil {
		t.Fatal(err)
	}
	g = h.nextGeneration(20 * time.Second)
	if g.summary.num("removed") != 1 || g.summary.num("files") != 1 {
		t.Fatalf("remove generation: %v", g.summary)
	}
	if g.summary["status"] != "clean" || g.summary.num("total_warnings") != 0 {
		t.Errorf("a removed file's warnings lingered: %v", g.summary)
	}
	found := false
	for _, ev := range g.pre {
		if ev.kind() == "remove" && ev.file() == "b.c" {
			found = true
		}
	}
	if !found {
		t.Errorf("no remove event for b.c: %v", g.pre)
	}
}

// TestDaemonHiddenFileIgnored: dotfiles appearing in the tree never trigger
// a generation (the walker regression this PR fixes would have checked them).
func TestDaemonHiddenFileIgnored(t *testing.T) {
	root := t.TempDir()
	write(t, root, "a.c", cleanFile)

	h := startDaemon(t, root, Options{Poll: 20 * time.Millisecond, Workers: 1, Seed: 1})
	h.nextGeneration(20 * time.Second)

	write(t, root, ".c", "not source (((")
	write(t, root, ".backup.c", "also not source )))")
	// The hidden files must produce no generation; prove the daemon is still
	// alive by making a real edit and asserting the very next generation is
	// about it alone.
	time.Sleep(100 * time.Millisecond)
	write(t, root, "b.c", cleanFile)
	g := h.nextGeneration(20 * time.Second)
	if g.summary.num("checked") != 1 {
		t.Fatalf("generation checked %d files, want 1: %v", g.summary.num("checked"), g.summary)
	}
	for _, ev := range g.pre {
		if ev.kind() == "file" && strings.HasPrefix(filepath.Base(ev.file()), ".") {
			t.Errorf("hidden file checked: %v", ev)
		}
	}
}

// TestDaemonInotify exercises the fs-notification path end to end where the
// platform supports it (skipped elsewhere — the polling tests carry the
// deterministic contract).
func TestDaemonInotify(t *testing.T) {
	root := t.TempDir()
	write(t, root, "a.c", cleanFile)

	pr, pw := io.Pipe()
	d, err := New(root, quals.MustStandard(), Options{
		Debounce: 50 * time.Millisecond, Workers: 1, Seed: 1, Out: pw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe, werr := newNotifyWatcher(root, d.opts.Walk); werr != nil {
		t.Skipf("fs notifications unavailable: %v", werr)
	} else {
		probe.Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- d.Run(ctx)
		pw.Close()
	}()
	events := make(chan event, 1024)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			var ev event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
	}()
	h := &harness{t: t, events: events, cancel: cancel, done: done}
	defer h.stop()

	h.nextGeneration(20 * time.Second)
	write(t, root, "sub/b.c", dirtyFile)
	g := h.nextGeneration(20 * time.Second)
	if g.summary.num("files") != 2 || g.summary["status"] != "dirty" {
		t.Fatalf("inotify generation: %v", g.summary)
	}
}
