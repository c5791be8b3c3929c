package input

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func write(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWalkOrderAndSkips(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "b.c"), "int b;")
	write(t, filepath.Join(root, "a.c"), "int a;")
	write(t, filepath.Join(root, "sub", "c.c"), "int c;")
	write(t, filepath.Join(root, "sub", "note.txt"), "not source")
	write(t, filepath.Join(root, "vendor", "v.c"), "int v;")
	write(t, filepath.Join(root, "testdata", "t.c"), "int t;")
	write(t, filepath.Join(root, ".hidden", "h.c"), "int h;")

	files, stats, err := Walk(root, WalkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rels []string
	for _, f := range files {
		rels = append(rels, f.Rel)
	}
	want := []string{"a.c", "b.c", "sub/c.c"}
	if !reflect.DeepEqual(rels, want) {
		t.Fatalf("walk order %v, want %v", rels, want)
	}
	if stats.Matched != 3 || stats.SkippedDirs != 3 {
		t.Errorf("stats %+v, want Matched=3 SkippedDirs=3", stats)
	}
	if stats.Visited != 4 { // three .c outside skips + note.txt
		t.Errorf("visited %d, want 4", stats.Visited)
	}
}

func TestWalkSizeCapAndMaxFiles(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "big.c"), strings.Repeat("x", 100))
	write(t, filepath.Join(root, "ok1.c"), "int a;")
	write(t, filepath.Join(root, "ok2.c"), "int b;")

	files, stats, err := Walk(root, WalkOptions{MaxFileBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || stats.TooLarge != 1 {
		t.Fatalf("got %d files, TooLarge=%d; want 2 files, 1 too large", len(files), stats.TooLarge)
	}
	if stats.Truncated {
		t.Error("uncapped walk reported Truncated")
	}

	files, stats, err = Walk(root, WalkOptions{MaxFiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Rel != "big.c" {
		t.Fatalf("MaxFiles=1 got %v, want [big.c]", files)
	}
	if !stats.Truncated {
		t.Error("MaxFiles-capped walk did not report Truncated")
	}
}

// Regression: a hidden file whose name satisfies the extension suffix check
// (".c" itself, or a dot-prefixed ".backup.c") must not be collected —
// dot-*directories* were always pruned, but dotfiles slipped through.
func TestWalkSkipsHiddenFiles(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "real.c"), "int a;")
	write(t, filepath.Join(root, ".c"), "int hidden;")
	write(t, filepath.Join(root, ".backup.c"), "int backup;")

	files, _, err := Walk(root, WalkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Rel != "real.c" {
		t.Fatalf("hidden files collected: got %v, want [real.c]", files)
	}
}

// TestSkip pins the one pruning rule the walker and the watcher share:
// non-hidden .c files are collected, and hidden, vendored and fixture
// directories are pruned.
func TestSkip(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  bool
		want bool
	}{
		{"a.c", false, false}, {"sub.x.c", false, false},
		{"a.h", false, true}, {".c", false, true}, {".hidden.c", false, true}, {"c", false, true},
		{"src", true, false}, {"sub.c", true, false},
		{"vendor", true, true}, {"testdata", true, true}, {"node_modules", true, true}, {".git", true, true},
	} {
		if got := Skip(tc.name, tc.dir); got != tc.want {
			t.Errorf("Skip(%q, dir=%t) = %t, want %t", tc.name, tc.dir, got, tc.want)
		}
	}
}

func TestWalkErrors(t *testing.T) {
	if _, _, err := Walk(filepath.Join(t.TempDir(), "missing"), WalkOptions{}); err == nil {
		t.Error("missing root: want error")
	}
	f := filepath.Join(t.TempDir(), "file.c")
	write(t, f, "int x;")
	if _, _, err := Walk(f, WalkOptions{}); err == nil {
		t.Error("non-directory root: want error")
	}
}

func TestReadString(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.c")
	write(t, small, "int tiny;")
	// Larger than one chunk so the grow path runs.
	bigBody := strings.Repeat("q", chunkSize+chunkSize/2)
	big := filepath.Join(dir, "big.c")
	write(t, big, bigBody)

	r := NewReader()
	got, err := r.ReadString(small, 0)
	if err != nil || got != "int tiny;" {
		t.Fatalf("small read: %q, %v", got, err)
	}
	got, err = r.ReadString(big, 0)
	if err != nil || got != bigBody {
		t.Fatalf("big read: len=%d, %v", len(got), err)
	}
	// Second big read should reuse the grown pooled buffer.
	if _, err := r.ReadString(big, 0); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Files != 3 || st.Bytes != uint64(len("int tiny;")+2*len(bigBody)) {
		t.Errorf("stats %+v", st)
	}
	if st.Reuses == 0 {
		t.Errorf("no pooled-buffer reuse recorded: %+v", st)
	}

	if _, err := r.ReadString(big, 10); err == nil {
		t.Error("size cap at read time: want error")
	}
	if _, err := r.ReadString(filepath.Join(dir, "missing.c"), 0); err == nil {
		t.Error("missing file: want error")
	}
}

func TestReadStringConcurrent(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = filepath.Join(dir, string(rune('a'+i))+".c")
		write(t, paths[i], strings.Repeat(string(rune('a'+i)), 1000+i))
	}
	r := NewReader()
	done := make(chan error, 32)
	for g := 0; g < 32; g++ {
		g := g
		go func() {
			p := paths[g%len(paths)]
			want := strings.Repeat(string(rune('a'+g%len(paths))), 1000+g%len(paths))
			for i := 0; i < 20; i++ {
				got, err := r.ReadString(p, 0)
				if err != nil {
					done <- err
					return
				}
				if got != want {
					done <- os.ErrInvalid
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 32; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Files != 32*20 {
		t.Errorf("files %d, want %d", st.Files, 32*20)
	}
}

// Symlinks are never followed — not into directories (a self-referential
// link must not hang the walk, a link escaping root must not smuggle files
// in) and not to files — and every skipped link is counted, not silent.
func TestWalkSkipsSymlinksWithoutFollowing(t *testing.T) {
	root := t.TempDir()
	outside := t.TempDir()
	write(t, filepath.Join(root, "real.c"), "int a;")
	write(t, filepath.Join(outside, "smuggled.c"), "int evil;")
	mustSymlink := func(target, link string) {
		t.Helper()
		if err := os.Symlink(target, link); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
	}
	mustSymlink(root, filepath.Join(root, "loop"))                             // cycle: root -> root
	mustSymlink(outside, filepath.Join(root, "extern"))                        // escape hatch to another tree
	mustSymlink(filepath.Join(root, "real.c"), filepath.Join(root, "alias.c")) // file alias

	done := make(chan struct{})
	var files []File
	var stats WalkStats
	var err error
	go func() {
		defer close(done)
		files, stats, err = Walk(root, WalkOptions{})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("walk did not terminate: a symlink cycle was followed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Rel != "real.c" {
		t.Fatalf("collected %v, want only real.c (no smuggled or aliased files)", files)
	}
	if stats.Symlinks != 3 {
		t.Errorf("stats.Symlinks = %d, want 3 (loop, extern, alias.c)", stats.Symlinks)
	}
}
