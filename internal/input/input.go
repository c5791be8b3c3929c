// Package input feeds repo-scale checking: it walks a source tree into a
// deterministic file list (skip rules for vendored and generated trees, a
// per-file size cap matching the parser's hardening) and reads sources
// through pooled chunked readers, so a pool of checking workers reuses a
// small set of read buffers instead of allocating one whole-file buffer per
// os.ReadFile call.
package input

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxFileBytes mirrors cminor.MaxSourceBytes (the parser refuses
// larger translation units anyway, so walking them in would only waste a
// read; the cap is restated here to keep this package dependency-free).
const DefaultMaxFileBytes = 4 << 20

// WalkOptions configures Walk.
type WalkOptions struct {
	// MaxFileBytes skips files larger than this (default
	// DefaultMaxFileBytes); skipped files are counted, not errors.
	MaxFileBytes int64
	// MaxFiles, when > 0, caps how many files are collected; the walk stops
	// early once reached (deterministically, in walk order).
	MaxFiles int
}

func (o WalkOptions) maxFileBytes() int64 {
	if o.MaxFileBytes > 0 {
		return o.MaxFileBytes
	}
	return DefaultMaxFileBytes
}

// Skip reports whether the walk leaves out the entry called name. Hidden
// (dot-prefixed) entries are always left out, a file literally named ".c"
// included: it is editor or VCS state, not source. Of the rest, a
// directory is pruned when it holds vendored code or fixtures (vendor,
// testdata, node_modules), whose diagnostics are someone else's, and a file
// is left out unless it is C source (.c), the cminor front end's unit. Walk
// and the watch daemon's directory registration both prune by it.
func Skip(name string, dir bool) bool {
	switch {
	case strings.HasPrefix(name, "."):
		return true
	case dir:
		return name == "vendor" || name == "testdata" || name == "node_modules"
	}
	return !strings.HasSuffix(name, ".c")
}

// File is one collected source file.
type File struct {
	// Path is the absolute (or root-relative, as given) on-disk path.
	Path string
	// Rel is the root-relative slash path — the stable label used in
	// diagnostics and for ordering.
	Rel string
	// Size is the file's length at walk time.
	Size int64
	// ModTime is the file's modification time at walk time; the watch
	// daemon's polling rescan compares (Size, ModTime) snapshots to find
	// changed files without reading them.
	ModTime time.Time
}

// WalkStats counts what the walk saw.
type WalkStats struct {
	// Matched files were collected; Visited counts every regular file seen.
	Matched int
	Visited int
	// SkippedDirs counts pruned directory subtrees; TooLarge counts files
	// over the size cap.
	SkippedDirs int
	TooLarge    int
	// Symlinks counts symlink entries skipped without following. The walk
	// never traverses a symlink — to a directory or a file — so a link
	// cycle cannot hang it and a link escaping root cannot smuggle files
	// into the check; this counter makes that pruning visible instead of
	// silent.
	Symlinks int
	// Vanished counts entries that disappeared between directory listing and
	// stat (routine under a watch daemon's mutating tree; never an error).
	Vanished int
	// TotalBytes sums the sizes of the collected files.
	TotalBytes int64
	// Truncated reports that MaxFiles stopped the walk early: Visited,
	// TotalBytes, and the file list cover only the prefix seen before the
	// cap (no silent caps — callers must surface this).
	Truncated bool
}

// Walk collects the checkable files under root in deterministic (lexical)
// order. A missing or non-directory root is an error; an unreadable entry
// inside the tree is too (repo-scale checking should not silently hole a
// report).
func Walk(root string, opts WalkOptions) ([]File, WalkStats, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, WalkStats{}, err
	}
	if !info.IsDir() {
		return nil, WalkStats{}, fmt.Errorf("input: %s is not a directory", root)
	}
	maxBytes := opts.maxFileBytes()
	var files []File
	var stats WalkStats
	errStop := fmt.Errorf("input: max files reached")
	walkErr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// An entry that vanished between listing and stat is a mutating
			// tree, not a broken walk (the watch daemon re-walks while
			// editors rewrite files); skip it and keep going.
			if errors.Is(err, fs.ErrNotExist) {
				stats.Vanished++
				return nil
			}
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && Skip(name, true) {
				stats.SkippedDirs++
				return fs.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			if d.Type()&fs.ModeSymlink != 0 {
				stats.Symlinks++
			}
			return nil
		}
		stats.Visited++
		if Skip(name, false) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				stats.Vanished++
				return nil
			}
			return err
		}
		if fi.Size() > maxBytes {
			stats.TooLarge++
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, File{Path: path, Rel: filepath.ToSlash(rel), Size: fi.Size(), ModTime: fi.ModTime()})
		stats.Matched++
		stats.TotalBytes += fi.Size()
		if opts.MaxFiles > 0 && len(files) >= opts.MaxFiles {
			stats.Truncated = true
			return errStop
		}
		return nil
	})
	if walkErr != nil && walkErr != errStop {
		return nil, stats, walkErr
	}
	return files, stats, nil
}

// chunkSize is the unit one pooled read grows by. 64 KiB covers most source
// files in a single chunk while keeping pooled buffers worth retaining.
const chunkSize = 64 << 10

// Reader reads whole source files through a pool of chunked buffers: each
// ReadString borrows a buffer, fills it in chunkSize steps, converts once to
// an immutable string, and returns the buffer for the next worker. Under a
// concurrent tree check this replaces one whole-file allocation per
// os.ReadFile with a steady state of ~one pooled buffer per worker. Safe for
// concurrent use.
type Reader struct {
	pool sync.Pool

	files  atomic.Uint64
	bytes  atomic.Uint64
	reuses atomic.Uint64
	grows  atomic.Uint64
}

// ReaderStats snapshots a Reader's counters.
type ReaderStats struct {
	// Files and Bytes count successful whole-file reads.
	Files uint64 `json:"files"`
	Bytes uint64 `json:"bytes"`
	// Reuses counts reads served entirely from a recycled pooled buffer;
	// Grows counts buffer extensions (a growing working set or cold pool).
	Reuses uint64 `json:"reuses"`
	Grows  uint64 `json:"grows"`
}

// NewReader returns a Reader with an empty buffer pool.
func NewReader() *Reader {
	r := &Reader{}
	r.pool.New = func() any {
		b := make([]byte, 0, chunkSize)
		return &b
	}
	return r
}

// Stats snapshots the reader's counters.
func (r *Reader) Stats() ReaderStats {
	return ReaderStats{
		Files:  r.files.Load(),
		Bytes:  r.bytes.Load(),
		Reuses: r.reuses.Load(),
		Grows:  r.grows.Load(),
	}
}

// ReadString reads the file at path into a string via a pooled chunked
// buffer. maxBytes, when > 0, rejects longer files with an error (the size
// may have changed since the walk; the cap is enforced at read time too).
func (r *Reader) ReadString(path string, maxBytes int64) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bp := r.pool.Get().(*[]byte)
	buf := (*bp)[:0]
	grown := false
	for {
		if len(buf) == cap(buf) {
			// Full: extend by one chunk. append with a zeroed chunk keeps the
			// slice header and capacity growth in the runtime's hands.
			buf = append(buf, make([]byte, chunkSize)...)[:len(buf)]
			grown = true
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if maxBytes > 0 && int64(len(buf)) > maxBytes {
			*bp = buf
			r.pool.Put(bp)
			return "", fmt.Errorf("input: %s is over the %d-byte limit", path, maxBytes)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf
			r.pool.Put(bp)
			return "", err
		}
	}
	src := string(buf)
	*bp = buf
	r.pool.Put(bp)
	r.files.Add(1)
	r.bytes.Add(uint64(len(src)))
	if grown {
		r.grows.Add(1)
	} else {
		r.reuses.Add(1)
	}
	return src, nil
}
