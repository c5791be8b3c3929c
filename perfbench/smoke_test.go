package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/quals"
	"repro/internal/soundness"
)

// The smoke test runs every workload at a tiny size, timed and traced,
// through the built command with the arguments of a real run, and checks
// that each prints every metric BENCHMARK.json names with its unit. It then
// proves each oracle can fail: with --tamper-oracle every workload must
// report wrong answers and exit non-zero. Run it from this directory with
//
//	go test ./...
//
// (it builds the benchmark and qualserve, and writes scratch files under
// ../.bench_build like the benchmark itself).

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildBench builds the benchmark and qualserve into one directory and
// returns the benchmark's path.
func buildBench(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "repro/cmd/qualserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return filepath.Join(dir, "perfbench")
}

// runBench runs one tiny workload from the checkout root and parses its
// result line.
func runBench(t *testing.T, exe, workload, trace string, extra ...string) (resultLine, int, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "0.05"}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Dir = ".."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var res resultLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: no result line (exit %d): %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, code, err, stdout.String(), stderr.String())
	}
	return res, code, stderr.String()
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	spec := loadSpec(t)
	exe := buildBench(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			res, code, stderr := runBench(t, exe, w.Name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, res, stderr)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			} else if res.Metrics["trace.coverage"].Value <= 0.5 {
				t.Errorf("%s: trace coverage %v", w.Name, res.Metrics["trace.coverage"].Value)
			}
		}
	}
}

func TestSmokeEveryOracleCanFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	spec := loadSpec(t)
	exe := buildBench(t)
	for _, w := range spec.Workloads {
		res, code, _ := runBench(t, exe, w.Name, "0", "--tamper-oracle")
		if code == 0 || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: a wrong expectation went unnoticed: exit %d, result %+v", w.Name, code, res)
		}
	}
}

// TestPerLayerListMatchesSpec keeps layers.go and BENCHMARK.json in step.
func TestPerLayerListMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		s := spec.PerLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, layers.go %+v", i, s, m)
		}
	}
}

// TestFileOracle checks the planted-warning oracle against a real check of
// generated files, and that it rejects a count that is off by one.
func TestFileOracle(t *testing.T) {
	o := newFileOracle()
	reg := quals.MustStandard()
	planted := 0
	for idx := 0; idx < 40; idx++ {
		src := corpus.TreeFile(7, idx)
		name := corpus.TreeFileName(idx)
		o.set(name, src)
		planted += plantedWarnings(src)
		prog, err := cminor.Parse(name, src, reg.Names())
		if err != nil {
			t.Fatal(err)
		}
		res := checker.CheckWith(prog, reg, checker.Options{Concurrency: 1})
		if err := o.checkFile(name, len(res.Diags)); err != nil {
			t.Fatal(err)
		}
		if err := o.checkFile(name, len(res.Diags)+1); err == nil {
			t.Fatalf("%s: an extra warning went unnoticed", name)
		}
	}
	if planted == 0 {
		t.Fatal("no violations planted in 40 files")
	}
	o.tamper = true
	if err := o.checkFile(corpus.TreeFileName(0), o.want[corpus.TreeFileName(0)]); err == nil {
		t.Fatal("tampered oracle accepted the planted count")
	}
}

// TestProveOracle checks the verdict oracle on one real op: the shipped
// qualifiers and the mutations pass, and every inverted expectation fails.
func TestProveOracle(t *testing.T) {
	sets, err := proveSets()
	if err != nil {
		t.Fatal(err)
	}
	w := &proveWorkload{sets: sets}
	reps, err := w.op(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.verify(reps); err != nil {
		t.Fatal(err)
	}
	for i, s := range sets {
		if err := checkProve(s.proveSet, reps[i], true); err == nil {
			t.Errorf("%s: inverted verdicts accepted", s.name)
		}
	}
	// A mutation whose report is missing must fail too.
	if err := checkProve(sets[1].proveSet, []*soundness.Report{{Qualifier: "neg"}}, false); err == nil {
		t.Error("a missing mutated qualifier went unnoticed")
	}
}
