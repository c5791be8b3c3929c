package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The tracer records spans around the benchmark's own calls into each layer
// of the program (no span is recorded inside the program). Spans are kept in
// memory and written as JSON Lines when the run ends; per-op layer totals
// are folded in as spans close.

// Layers, as recorded on every span. The root span of a traced op belongs
// to layerBench: its self time is benchmark glue, not program work.
const (
	layerBench     = "bench"
	layerInput     = "input"
	layerCminor    = "cminor"
	layerChecker   = "checker"
	layerDisk      = "cachedisk"
	layerSoundness = "soundness"
	layerSimplify  = "simplify"
	layerCert      = "cert"
	layerServer    = "server"
)

// span is one recorded interval. Start and End are nanoseconds since the
// tracer was created; Parent is -1 for an op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans still reach the
// totals but are not written out.
const maxSpans = 400_000

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int
	open  map[int]*openSpan
	spans []span

	ops    []int
	opWall map[int]float64            // op -> root span ms
	selfMs map[int]map[string]float64 // op -> layer -> self ms
	nameMs map[int]map[string]float64 // op -> span name -> total ms
	durs   map[string][]float64       // span name -> every duration (ms)
}

type openSpan struct {
	span
	childNs int64
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		open:   map[int]*openSpan{},
		opWall: map[int]float64{},
		selfMs: map[int]map[string]float64{},
		nameMs: map[int]map[string]float64{},
		durs:   map[string][]float64{},
	}
}

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, layer, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	t.open[id] = &openSpan{span: span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now}}
	return id
}

// end closes a span. Children close before their parent, and the children
// of one parent do not overlap (each traced op is serial), so a span's self
// time is its duration minus its children's.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[id]
	delete(t.open, id)
	s.End = now
	dur := s.End - s.Start
	if p := t.open[s.Parent]; p != nil {
		p.childNs += dur
	}
	if s.Parent < 0 {
		t.ops = append(t.ops, s.Op)
		t.opWall[s.Op] += float64(dur) / 1e6
	}
	if t.selfMs[s.Op] == nil {
		t.selfMs[s.Op] = map[string]float64{}
		t.nameMs[s.Op] = map[string]float64{}
	}
	t.selfMs[s.Op][s.Layer] += float64(dur-s.childNs) / 1e6
	t.nameMs[s.Op][s.Name] += float64(dur) / 1e6
	t.durs[s.Name] = append(t.durs[s.Name], float64(dur)/1e6)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s.span)
	}
}

// perOp returns the median over traced ops of f(op); f runs under the
// tracer's lock and must not call back into it.
func (t *tracer) perOp(f func(op int) float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, 0, len(t.ops))
	for _, op := range t.ops {
		xs = append(xs, f(op))
	}
	return median(xs)
}

// nameMedian is the median over ops of the total time in spans named name.
func (t *tracer) nameMedian(name string) float64 {
	return t.perOp(func(op int) float64 { return t.nameMs[op][name] })
}

// selfMedian is the median over ops of a layer's self time.
func (t *tracer) selfMedian(layer string) float64 {
	return t.perOp(func(op int) float64 { return t.selfMs[op][layer] })
}

// opWalls returns every traced op's root-span wall time (ms).
func (t *tracer) opWalls() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, 0, len(t.ops))
	for _, op := range t.ops {
		xs = append(xs, t.opWall[op])
	}
	return xs
}

// durations returns every recorded duration (ms) of spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

// coverage is the share of traced op wall time that layer spans account
// for: every non-bench layer's self time over the root spans' wall time.
func (t *tracer) coverage() (covered, uncoveredMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall, inLayers float64
	for _, op := range t.ops {
		wall += t.opWall[op]
		for layer, v := range t.selfMs[op] {
			if layer != layerBench {
				inLayers += v
			}
		}
	}
	if wall == 0 || len(t.ops) == 0 {
		return 0, 0
	}
	return inLayers / wall, (wall - inLayers) / float64(len(t.ops))
}

// write stores the kept spans, sorted by start, as JSON Lines at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
