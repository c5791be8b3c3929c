// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload through the program's public entry points, checks every
// answer against an oracle that does not use the code under test, and
// prints the workload's metrics, the last line being one JSON object:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics (setup_s, lat_ms_p50,
// lat_ms_tail, work_per_cpu_s); with --trace 1 it makes a separate traced
// run and prints the per-layer metrics. --workload all runs every workload,
// each in a fresh process, and prints all end-to-end values. The workloads,
// the metrics and which layer each metric belongs to are described in
// METRICS.md next to this file; run.sh builds the program and this command
// from source.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchDirName is the benchmark's own directory at the checkout root.
const benchDirName = "perfbench"

// setupSamples is how many times a timed run sets its workload up; setup_s
// is their median. All but the last run in child processes, so every sample
// is a first set-up in a fresh process.
const setupSamples = 3

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	scale       float64
	tamper      bool
	setupSample bool
	root        string
	workDir     string
	topDir      bool // workDir's parent spreads new directories (setTopDir)
	binDir      string
}

// workload is one benchmark scenario. setup prepares inputs and program
// state (timed as a setup_s sample); timed runs ops until the deadline;
// traced makes the per-layer run; close releases everything setup made.
type workload interface {
	setup(o *options) error
	timed(o *options, d time.Duration) *timedResult
	traced(o *options, d time.Duration) ([]metric, map[string]any, error)
	close()
}

// workloads maps a workload name to its constructor, in report order.
var workloadNames = []string{"tree-cold", "tree-disk-incr", "prove-cold", "serve-check"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tree-cold":
		return &treeWorkload{disk: false}, nil
	case "tree-disk-incr":
		return &treeWorkload{disk: true}, nil
	case "prove-cold":
		return &proveWorkload{}, nil
	case "serve-check":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

// timedResult is what a timed phase measured.
type timedResult struct {
	lat      []float64 // per-op wall ms; +Inf for a failed op
	steal    []float64 // per-op busy-steal share (see stealTimer)
	failed   int
	firstErr error
	// rates are work units per program CPU-second, one per op (or, for a
	// server measured from outside, per one-second window); work_per_cpu_s
	// is their median, so a burst of interference moves it less than a
	// whole-run ratio.
	rates     []float64
	cpu       time.Duration // program CPU over the ops
	workUnit  string
	clients   int
	extra     map[string]any
	elapsedMs float64
}

// add records one op: its wall time and the busy-steal share over it (see
// stealTimer), the program CPU it used, the work it did, and the oracle's
// verdict.
func (r *timedResult) add(wall time.Duration, steal float64, cpu time.Duration, work float64, err error) {
	r.cpu += cpu
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		r.lat = append(r.lat, math.Inf(1))
		r.steal = append(r.steal, 0)
		return
	}
	r.lat = append(r.lat, ms(wall))
	r.steal = append(r.steal, steal)
	if cpu > 0 {
		r.rates = append(r.rates, work/cpu.Seconds())
	}
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 makes the traced per-layer run")
	flag.Float64Var(&o.scale, "scale", 1, "input size factor (the smoke test shrinks inputs)")
	flag.BoolVar(&o.tamper, "tamper-oracle", false, "feed every oracle a wrong expectation (proves the oracles can fail)")
	flag.BoolVar(&o.setupSample, "setup-sample", false, "set the workload up once, report the time, and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.workload == "" || o.seconds <= 0 || o.scale <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds > 0, --scale > 0 and --trace 0|1")
		return 2
	}
	var err error
	if o.root, err = os.Getwd(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o.binDir = filepath.Dir(exe)
	if o.workload == "all" {
		return runAll(&o, exe)
	}
	w, err := newWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	workRoot := filepath.Join(o.root, ".bench_build", benchDirName, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o.topDir = setTopDir(workRoot)
	o.workDir = filepath.Join(workRoot, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.Mkdir(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(o.workDir)
	if o.setupSample {
		return runSetupSample(&o, w)
	}
	return runOne(&o, w, exe)
}

// runSetupSample is the child side of setup sampling: it prints the set-up
// time net of steal and the raw wall time.
func runSetupSample(o *options, w workload) int {
	st := startStealTimer()
	err := w.setup(o)
	sp := st.stop()
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	fmt.Printf("setup_s=%.9f %.9f\n", sp.netSeconds(), sp.wall.Seconds())
	return 0
}

// childSetup runs one setup sample in a fresh process and returns its time
// net of steal and its raw wall time.
func childSetup(o *options, exe string) (net, wall float64, err error) {
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "--setup-sample")
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("setup sample: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "setup_s="); ok {
			if _, err := fmt.Sscanf(v, "%g %g", &net, &wall); err != nil {
				return 0, 0, fmt.Errorf("setup sample: %v", err)
			}
			return net, wall, nil
		}
	}
	return 0, 0, fmt.Errorf("setup sample printed no time")
}

// runOne sets up, measures, and reports one workload.
func runOne(o *options, w workload, exe string) int {
	ticks0 := readCPUTicks()
	wall0 := time.Now()
	record := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"work_dir":    filepath.Join(".bench_build", benchDirName, "work"),
		"work_fs":     fsTypeName(o.workDir),
		"work_topdir": o.topDir,
	}
	if o.scale != 1 {
		record["scale"] = o.scale
	}
	record["commit"], record["source_sha256"] = sourceIdentity(o.root)

	var setups, rawSetups []float64
	if !o.trace {
		for i := 0; i < setupSamples-1; i++ {
			net, wall, err := childSetup(o, exe)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			setups, rawSetups = append(setups, net), append(rawSetups, wall)
		}
	}
	st := startStealTimer()
	err := w.setup(o)
	sp := st.stop()
	setups, rawSetups = append(setups, sp.netSeconds()), append(rawSetups, sp.wall.Seconds())
	defer w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	d := time.Duration(o.seconds * float64(time.Second))

	var metrics []metric
	attempted, failed := 0, 0
	correct := true
	if o.trace {
		m, extra, err := w.traced(o, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			correct = false
			failed = 1
		}
		for k, v := range extra {
			record[k] = v
		}
		if a, ok := extra["attempted"].(int); ok {
			attempted = a
		}
		if f, ok := extra["failed"].(int); ok {
			failed += f
			correct = correct && f == 0
		}
		metrics = m
	} else {
		st := startStealTimer()
		r := w.timed(o, d)
		phase := st.stop()
		attempted, failed = len(r.lat), r.failed
		correct = r.failed == 0 && len(r.lat) > 0
		if r.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: oracle mismatch:", r.firstErr)
			record["first_error"] = r.firstErr.Error()
		}
		// Each op's latency is net of the hypervisor's steal over that op,
		// not over the whole phase: steal comes in bursts, and the ops a
		// burst hits are the tail, which the phase's average share would
		// leave following the host's load. The CPUs the work keeps busy are
		// the phase's average, as a 20 ms op spans too few ticks to count
		// them (see netOfSteal). The raw values go to the record.
		net := make([]float64, len(r.lat))
		for i, l := range r.lat {
			net[i] = netOfSteal(l, r.steal[i], phase.cpus)
		}
		tl, pct := tail(net)
		rawTail, _ := tail(r.lat)
		metrics = []metric{
			{"setup_s", "s", median(setups)},
			{"lat_ms_p50", "ms", finite(median(net))},
			{"lat_ms_tail", "ms", finite(tl)},
			{"work_per_cpu_s", "work/cpu_s", median(r.rates)},
		}
		record["steal_busy_share_measured"] = phase.share
		record["busy_cpus_measured"] = phase.cpus
		record["lat_ms_p50_raw"] = finite(median(r.lat))
		record["lat_ms_tail_raw"] = finite(rawTail)
		record["setup_samples_s"] = setups
		record["setup_samples_raw_s"] = rawSetups
		record["ops"] = len(r.lat)
		record["tail_percentile"] = pct
		record["ops_beyond_tail"] = min(tailBeyond, len(r.lat)-1)
		record["clients"] = r.clients
		record["work_unit"] = r.workUnit
		record["cpu_s"] = r.cpu.Seconds()
		record["measured_s"] = r.elapsedMs / 1000
		for k, v := range r.extra {
			record[k] = v
		}
	}
	if attempted < 1 {
		attempted = 1
		correct = false
	}
	record["steal_share"] = stealShare(ticks0, readCPUTicks())
	record["run_wall_s"] = time.Since(wall0).Seconds()
	return report(metrics, record, correct, attempted, failed)
}

// report prints the metrics table, the run record, and the result line; the
// exit code is 1 when any answer was wrong.
func report(metrics []metric, record map[string]any, correct bool, attempted, failed int) int {
	for i, m := range metrics {
		// JSON has no NaN or infinity; a failed op's +Inf latency is already
		// mapped to the largest float, so anything left is a benchmark bug.
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", m.name, m.value)
			metrics[i].value = 0
			correct = false
		}
	}
	for _, m := range metrics {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	rec, _ := json.Marshal(record)
	fmt.Printf("run-record %s\n", rec)
	out := map[string]any{}
	for _, m := range metrics {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process and prints the end-to-end
// values of all of them, keyed workload/metric.
func runAll(o *options, exe string) int {
	all := map[string]any{}
	correct := true
	attempted, failed := 0, 0
	for _, name := range workloadNames {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", boolDigit(o.trace),
			"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
		if o.tamper {
			cmd.Args = append(cmd.Args, "--tamper-oracle")
		}
		cmd.Dir = o.root
		cmd.Stderr = os.Stderr
		out, _ := cmd.Output()
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s printed no result\n", name)
			correct = false
			failed++
			attempted++
			continue
		}
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for k, v := range res.Metrics {
			all[name+"/"+k] = v
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, "{") && !strings.HasPrefix(line, "run-record") {
				fmt.Printf("%-16s %s\n", name, line)
			}
		}
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": all})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return []byte(lines[len(lines)-1])
}
