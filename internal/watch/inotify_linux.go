//go:build linux

package watch

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"unsafe"

	"repro/internal/input"
)

// notifyWatcher is the inotify-backed change source: one inotify fd with a
// watch per directory (the tree's directories that input.Skip keeps),
// a reader goroutine translating raw events into root-relative paths, and
// dynamic watch registration when directories appear. It is deliberately
// best-effort — delivered paths only *accelerate* the daemon's
// snapshot-compare rescan, so a dropped or coalesced event costs latency,
// never correctness.
type notifyWatcher struct {
	// f wraps the inotify fd via os.NewFile in non-blocking mode, so reads
	// park on the runtime poller and Close safely unblocks a concurrent
	// read. (A raw blocking syscall.Read plus syscall.Close would race: the
	// kernel can recycle the fd number to a new inotify instance while the
	// old read is still in flight, and the next loop iteration would then
	// read — steal — the new instance's events.)
	f      *os.File
	fd     int
	root   string
	events chan string

	mu      sync.Mutex
	wdPaths map[int]string // watch descriptor → absolute directory path
}

// watchMask covers everything that changes a file's checkable content or the
// tree's membership: writes closing, creations, deletions, and both halves
// of a rename.
const watchMask = syscall.IN_CLOSE_WRITE | syscall.IN_CREATE | syscall.IN_DELETE |
	syscall.IN_MOVED_TO | syscall.IN_MOVED_FROM | syscall.IN_DELETE_SELF

// newNotifyWatcher starts watching root's directory tree.
func newNotifyWatcher(root string) (*notifyWatcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("inotify_init: %w", err)
	}
	w := &notifyWatcher{
		f:       os.NewFile(uintptr(fd), "inotify"),
		fd:      fd,
		root:    root,
		events:  make(chan string, 1024),
		wdPaths: map[int]string{},
	}
	if err := w.addDirTree(root); err != nil {
		w.Close()
		return nil, err
	}
	go w.readLoop()
	return w, nil
}

// Events delivers root-relative slash paths of touched entries. The channel
// closes when the watcher dies (fd closed or kernel error).
func (w *notifyWatcher) Events() <-chan string { return w.events }

// Close stops the watcher; the parked read fails with ErrClosed and the
// reader goroutine exits, closing the events channel.
func (w *notifyWatcher) Close() error {
	return w.f.Close()
}

// addDirTree registers watches for dir and every non-pruned directory below
// it. Called at startup and whenever a directory is created or moved in
// (its contents may predate the watch, so the daemon's next rescan picks
// them up via snapshot compare).
func (w *notifyWatcher) addDirTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if _, ok := err.(*fs.PathError); ok && path != dir {
				return nil // a directory vanished mid-registration; rescan reconciles
			}
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != dir && input.Skip(d.Name(), true) {
			return fs.SkipDir
		}
		wd, err := syscall.InotifyAddWatch(w.fd, path, watchMask)
		if err != nil {
			return fmt.Errorf("inotify_add_watch %s: %w", path, err)
		}
		w.mu.Lock()
		w.wdPaths[wd] = path
		w.mu.Unlock()
		return nil
	})
}

// readLoop parses the kernel's event records and forwards root-relative
// paths. A full channel drops the event (the next rescan's snapshot compare
// still sees the change; only the force-recheck acceleration is lost).
func (w *notifyWatcher) readLoop() {
	defer close(w.events)
	buf := make([]byte, 64<<10)
	for {
		n, err := w.f.Read(buf)
		if err != nil || n <= 0 {
			return // fd closed (shutdown) or kernel error
		}
		offset := 0
		for offset+syscall.SizeofInotifyEvent <= n {
			ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[offset]))
			nameEnd := offset + syscall.SizeofInotifyEvent + int(ev.Len)
			if nameEnd > n {
				break
			}
			name := ""
			if ev.Len > 0 {
				raw := buf[offset+syscall.SizeofInotifyEvent : nameEnd]
				if i := strings.IndexByte(string(raw), 0); i >= 0 {
					name = string(raw[:i])
				} else {
					name = string(raw)
				}
			}
			w.handleEvent(ev, name)
			offset = nameEnd
		}
	}
}

// handleEvent maps one raw event onto the daemon's contract: touched files
// become relative-path events, and new directories are watched immediately.
func (w *notifyWatcher) handleEvent(ev *syscall.InotifyEvent, name string) {
	w.mu.Lock()
	dir, ok := w.wdPaths[int(ev.Wd)]
	if ev.Mask&syscall.IN_IGNORED != 0 || ev.Mask&syscall.IN_DELETE_SELF != 0 {
		delete(w.wdPaths, int(ev.Wd))
	}
	w.mu.Unlock()
	if !ok || name == "" {
		return
	}
	path := filepath.Join(dir, name)
	if ev.Mask&syscall.IN_ISDIR != 0 {
		if input.Skip(name, true) {
			return
		}
		if ev.Mask&(syscall.IN_CREATE|syscall.IN_MOVED_TO) != 0 {
			w.addDirTree(path) // best effort; rescan reconciles failures
		}
		// Fall through and forward the directory path: files created inside
		// it may have raced ahead of the new watch (and a deleted directory
		// took its files with it), so the event must still trigger a rescan —
		// the snapshot compare finds the actual per-file changes.
	}
	rel, err := filepath.Rel(w.root, path)
	if err != nil {
		return
	}
	select {
	case w.events <- filepath.ToSlash(rel):
	default: // full buffer: drop; snapshot compare catches it
	}
}
