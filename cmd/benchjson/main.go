// Command benchjson converts `go test -bench` output into a stable JSON
// document, optionally joining it against a baseline run of the same
// benchmarks to compute per-benchmark and per-family geomean speedups. The
// repo's `make bench` target pipes the prover benchmark suite through it to
// produce BENCH_prover.json, the committed performance record.
//
// With -prev pointing at the previously committed document, the new document
// carries a "history" array: the prior run's summary (note, benchmark count,
// overall and per-family geomeans) is appended to the prior history, so
// BENCH_prover.json keeps the PR-over-PR trajectory, not just the latest
// snapshot. -max-regress turns the same comparison into a CI gate: if the
// current overall geomean falls more than the given fraction below the
// previous document's, benchjson exits nonzero (`make bench-smoke` uses this
// with 0.10). Pass or fail, the gate first prints each family's geomean next
// to the previous document's on stderr, so a moved geomean names its family.
//
// Usage:
//
//	go test -bench . -count 3 . | benchjson -baseline old.txt -o BENCH.json
//	go test -bench . -benchtime 1x . | benchjson -baseline old.txt \
//	    -prev BENCH.json -max-regress 0.10 >/dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// run is one benchmark line's measurements.
type run struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasMem      bool
}

// gomaxprocsSuffix strips the "-8"-style GOMAXPROCS suffix go test appends
// to benchmark names on multi-core runs.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts per-name runs from go test -bench output, ignoring
// headers, PASS/ok trailers, and custom ReportMetric columns.
func parseBench(r io.Reader) (map[string][]run, []string, error) {
	runs := map[string][]run{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		rn := run{nsPerOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				rn.bytesPerOp = v
				rn.hasMem = true
			case "allocs/op":
				rn.allocsPerOp = v
				rn.hasMem = true
			}
		}
		if _, seen := runs[name]; !seen {
			order = append(order, name)
		}
		runs[name] = append(runs[name], rn)
	}
	return runs, order, sc.Err()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// round2 keeps the JSON readable: two decimals is plenty for speedups.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// benchEntry is one benchmark's JSON record.
type benchEntry struct {
	Name              string    `json:"name"`
	RunsNsPerOp       []float64 `json:"runs_ns_per_op"`
	MeanNsPerOp       float64   `json:"mean_ns_per_op"`
	BytesPerOp        *float64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp       *float64  `json:"allocs_per_op,omitempty"`
	BaselineNsPerOp   *float64  `json:"baseline_mean_ns_per_op,omitempty"`
	SpeedupVsBaseline *float64  `json:"speedup_vs_baseline,omitempty"`
}

// familyEntry aggregates speedups over a top-level benchmark family (the
// name up to the first '/').
type familyEntry struct {
	Name           string  `json:"name"`
	Benchmarks     int     `json:"benchmarks"`
	GeomeanSpeedup float64 `json:"geomean_speedup_vs_baseline"`
}

// historyEntry is one prior run's summary, kept when the document is
// rewritten so the committed record preserves the PR-over-PR trajectory.
type historyEntry struct {
	Note           string        `json:"note,omitempty"`
	Benchmarks     int           `json:"benchmarks"`
	Families       []familyEntry `json:"families,omitempty"`
	GeomeanSpeedup *float64      `json:"geomean_speedup_vs_baseline,omitempty"`
}

// maxHistory bounds the trajectory so the committed JSON cannot grow without
// limit; the oldest entries age out first.
const maxHistory = 20

type doc struct {
	Note           string         `json:"note"`
	Benchmarks     []benchEntry   `json:"benchmarks"`
	Families       []familyEntry  `json:"families,omitempty"`
	GeomeanSpeedup *float64       `json:"geomean_speedup_vs_baseline,omitempty"`
	History        []historyEntry `json:"history,omitempty"`
}

func family(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	baselinePath := flag.String("baseline", "", "prior go test -bench output to compute speedups against")
	note := flag.String("note", "", "free-form provenance note stored in the document")
	prevPath := flag.String("prev", "", "previously committed benchjson document; its summary is appended to the new document's history")
	maxRegress := flag.Float64("max-regress", 0, "fail (exit 1) if the overall geomean falls more than this fraction below -prev's (0 = off)")
	flag.Parse()

	cur, order, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	base := map[string][]run{}
	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			fatal(err)
		}
		base, _, err = parseBench(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	d := doc{Note: *note}
	famSpeedups := map[string][]float64{}
	var allSpeedups []float64
	for _, name := range order {
		rs := cur[name]
		e := benchEntry{Name: name}
		for _, r := range rs {
			e.RunsNsPerOp = append(e.RunsNsPerOp, r.nsPerOp)
		}
		e.MeanNsPerOp = round2(mean(e.RunsNsPerOp))
		var bytesRuns, allocRuns []float64
		for _, r := range rs {
			if r.hasMem {
				bytesRuns = append(bytesRuns, r.bytesPerOp)
				allocRuns = append(allocRuns, r.allocsPerOp)
			}
		}
		if len(bytesRuns) > 0 {
			b, a := round2(mean(bytesRuns)), round2(mean(allocRuns))
			e.BytesPerOp, e.AllocsPerOp = &b, &a
		}
		if brs, ok := base[name]; ok {
			bm := mean(func() []float64 {
				xs := make([]float64, len(brs))
				for i, r := range brs {
					xs[i] = r.nsPerOp
				}
				return xs
			}())
			bmr := round2(bm)
			sp := round2(bm / mean(e.RunsNsPerOp))
			e.BaselineNsPerOp, e.SpeedupVsBaseline = &bmr, &sp
			famSpeedups[family(name)] = append(famSpeedups[family(name)], bm/mean(e.RunsNsPerOp))
			allSpeedups = append(allSpeedups, bm/mean(e.RunsNsPerOp))
		}
		d.Benchmarks = append(d.Benchmarks, e)
	}
	var fams []string
	for f := range famSpeedups {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		d.Families = append(d.Families, familyEntry{
			Name:           f,
			Benchmarks:     len(famSpeedups[f]),
			GeomeanSpeedup: round2(geomean(famSpeedups[f])),
		})
	}
	if len(allSpeedups) > 0 {
		g := round2(geomean(allSpeedups))
		d.GeomeanSpeedup = &g
	}

	if *prevPath != "" {
		prev, err := loadPrev(*prevPath)
		switch {
		case err != nil:
			// A missing previous document is the bootstrap case, not an
			// error: record nothing and (if gating) let the run pass.
			fmt.Fprintf(os.Stderr, "benchjson: no usable -prev document (%v); history and gate skipped\n", err)
		default:
			d.History = append(prev.History, historyEntry{
				Note:           prev.Note,
				Benchmarks:     len(prev.Benchmarks),
				Families:       prev.Families,
				GeomeanSpeedup: prev.GeomeanSpeedup,
			})
			if n := len(d.History); n > maxHistory {
				d.History = d.History[n-maxHistory:]
			}
			if *maxRegress > 0 {
				printFamilies(os.Stderr, d.Families, prev.Families)
				if err := gate(d.GeomeanSpeedup, prev.GeomeanSpeedup, *maxRegress); err != nil {
					fatal(err)
				}
			}
		}
	}

	enc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// loadPrev reads a previously written benchjson document.
func loadPrev(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// printFamilies writes one line per family of the current run to w: its
// geomean speedup next to the previous document's for the same family.
func printFamilies(w io.Writer, cur, prev []familyEntry) {
	was := map[string]float64{}
	for _, f := range prev {
		was[f.Name] = f.GeomeanSpeedup
	}
	for _, f := range cur {
		if p, ok := was[f.Name]; ok && p > 0 {
			fmt.Fprintf(w, "benchjson: %s: %.2fx vs previous %.2fx (%+.0f%%)\n",
				f.Name, f.GeomeanSpeedup, p, 100*(f.GeomeanSpeedup/p-1))
		} else {
			fmt.Fprintf(w, "benchjson: %s: %.2fx (no previous value)\n", f.Name, f.GeomeanSpeedup)
		}
	}
}

// gate is the regression check: the current run's overall geomean speedup
// must not fall more than maxRegress below the previous document's. Both
// geomeans are against the same fixed -baseline file, so the ratio tracks
// real engine drift, not baseline churn.
func gate(cur, prev *float64, maxRegress float64) error {
	if prev == nil {
		fmt.Fprintln(os.Stderr, "benchjson: -prev document has no geomean; gate skipped")
		return nil
	}
	if cur == nil {
		return fmt.Errorf("regression gate: current run has no geomean (baseline missing?) but -prev records %.2fx", *prev)
	}
	floor := *prev * (1 - maxRegress)
	if *cur < floor {
		return fmt.Errorf("regression gate: geomean speedup %.2fx is below %.2fx (previous %.2fx - %.0f%%)",
			*cur, floor, *prev, 100*maxRegress)
	}
	fmt.Fprintf(os.Stderr, "benchjson: regression gate ok: %.2fx vs previous %.2fx (floor %.2fx)\n", *cur, *prev, floor)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
