package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named value of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, with that percentile. With fewer than tailBeyond+1
// samples it falls back to the maximum (percentile 100), which the run
// record flags.
func tail(xs []float64) (value, percentile float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= tailBeyond {
		return s[n-1], 100
	}
	k := n - tailBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n)
}

// finite maps +Inf (a failed op) to the largest float so the JSON line stays
// valid; a run with failures is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on every
// mainstream Linux build).
const clockTick = 10 * time.Millisecond

// pidCPU returns the user+system CPU time of another process, all threads,
// from /proc/<pid>/stat.
func pidCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	// The command name may contain spaces; fields resume after its ')'.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// cpuTicks is a snapshot of the machine-wide /proc/stat CPU line: busy
// (user, nice, system, irq, softirq), stolen, and all ticks.
type cpuTicks struct{ busy, steal, total uint64 }

func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already inside user, so it is not added again.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		switch i {
		case 1, 2, 3, 6, 7:
			t.busy += v
		case 8:
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of all CPU ticks the hypervisor stole between a
// and b.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// busyStealShare is the share of the time the VM's CPUs wanted to run
// between a and b that the hypervisor gave to someone else: the slowdown
// steal imposed on whatever was running.
func busyStealShare(a, b cpuTicks) float64 {
	wanted := (b.busy - a.busy) + (b.steal - a.steal)
	if wanted == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(wanted)
}

// stealTimer measures an interval's wall time and the hypervisor's steal
// over it. The counters are read outside the timed interval.
type stealTimer struct {
	t0     time.Time
	ticks0 cpuTicks
}

func startStealTimer() stealTimer {
	k := readCPUTicks()
	return stealTimer{time.Now(), k}
}

// stealSpan is what a stealTimer measured: the wall time, the busy-steal
// share s, and n, the CPUs the VM kept busy on average (busy and stolen
// ticks over the interval's length in ticks).
type stealSpan struct {
	wall  time.Duration
	share float64
	cpus  float64
}

func (st stealTimer) stop() stealSpan {
	wall := time.Since(st.t0)
	k := readCPUTicks()
	sp := stealSpan{wall: wall, share: busyStealShare(st.ticks0, k)}
	if wall > 0 {
		wanted := (k.busy - st.ticks0.busy) + (k.steal - st.ticks0.steal)
		sp.cpus = min(float64(runtime.NumCPU()), float64(wanted)*float64(clockTick)/float64(wall))
	}
	return sp
}

// netSeconds is the span's wall time net of its own steal (see netOfSteal).
func (sp stealSpan) netSeconds() float64 { return netOfSteal(sp.wall.Seconds(), sp.share, sp.cpus) }

// netOfSteal is how long work that took wall would have taken had the
// hypervisor not stolen the share s of each of the n CPUs it kept busy:
// wall*(1-s)^n. The work's parts on different CPUs wait for each other (for
// a lock, the runtime's stop-the-world, the last task of a parallel pass),
// so it moves on only while all n run, a share (1-s)^n of the time when
// each is stolen independently; on one CPU that is wall*(1-s). METRICS.md
// has the measurements behind it.
func netOfSteal(wall, s, n float64) float64 { return wall * math.Pow(1-s, n) }

// fsTypeName names the filesystem holding dir, from its statfs magic.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// setTopDir marks dir as the top of a directory hierarchy (chattr +T), so
// that ext4 places each new subdirectory, and the files in it, in a fresh
// inode group. Without it every run's scratch directory lands in the same
// group as the last run's, whose just-deleted inodes ext4 (in no-journal
// mode) skips one by one on every create: a run's set-up would pay for the
// previous run's cleanup. It reports whether the flag is set; other
// filesystems ignore or refuse it, which is harmless.
func setTopDir(dir string) bool {
	const (
		fsIocGetFlags = 0x80086601
		fsIocSetFlags = 0x40086602
		fsTopDirFl    = 0x00020000
	)
	f, err := os.Open(dir)
	if err != nil {
		return false
	}
	defer f.Close()
	var flags uint32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return false
	}
	if flags&fsTopDirFl != 0 {
		return true
	}
	flags |= fsTopDirFl
	_, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
	return e == 0
}

// sourceIdentity names the program under test: the git commit when the
// checkout is a repository, and always a SHA-256 over the program's source
// files (the benchmark directory and dot-directories excluded), which also
// identifies a plain file copy.
func sourceIdentity(root string) (commit, sourceHash string) {
	commit = "none"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == benchDirName) {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".go", ".qdl", ".mod", ".h":
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
		h.Write([]byte{0})
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// memDelta is the Go runtime's allocation and GC activity over an interval.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	numGC      uint32
	pause      time.Duration
}

func memSnap() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memDiff(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		mallocs:    b.Mallocs - a.Mallocs,
		numGC:      b.NumGC - a.NumGC,
		pause:      time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

func (d *memDelta) add(o memDelta) {
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.numGC += o.numGC
	d.pause += o.pause
}

// heapPeak samples the live-object heap every few milliseconds, without
// stopping the world, and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				if v := sample[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// procMetrics renders the Go-runtime per-op metrics.
func procMetrics(ops int, cpu time.Duration, d memDelta, peakMB float64) []metric {
	n := float64(ops)
	if n == 0 {
		n = 1
	}
	return []metric{
		{"proc.cpu_ms_per_op", "ms", ms(cpu) / n},
		{"proc.alloc_mb_per_op", "MB", float64(d.allocBytes) / (1 << 20) / n},
		{"proc.mallocs_per_op", "count", float64(d.mallocs) / n},
		{"proc.gc_per_op", "count", float64(d.numGC) / n},
		{"proc.gc_pause_ms", "ms", ms(d.pause) / n},
		{"proc.heap_mb_peak", "MB", peakMB},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
