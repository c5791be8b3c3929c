package watch

import (
	"encoding/json"
	"io"

	"repro/internal/checker"
	"repro/internal/input"
	"repro/internal/scheduler"
)

// The daemon's output is a JSONL event stream: one self-describing JSON
// object per line, pushed to stdout as each generation completes, so an
// editor plugin or CI tailer can consume diagnostics without polling. Field
// order is struct-declaration order and every value is deterministic for a
// given tree state (no timestamps, no durations on the per-generation
// events), so a generation's bytes can be asserted verbatim in tests.

// fileEvent announces one re-checked file (emitted before its diag events).
// Err carries a read/parse failure; Warnings counts the diag events that
// follow.
type fileEvent struct {
	Event      string `json:"event"` // "file"
	Generation uint64 `json:"generation"`
	File       string `json:"file"`
	Warnings   int    `json:"warnings"`
	Err        string `json:"err,omitempty"`
}

// diagEvent is one diagnostic, LSP-shaped: position, the qualifier rule code
// that fired, and the human message.
type diagEvent struct {
	Event      string `json:"event"` // "diag"
	Generation uint64 `json:"generation"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Qualifier  string `json:"qualifier"`
	Message    string `json:"message"`
}

// removeEvent retires a file that left the tree; its previous diagnostics no
// longer apply.
type removeEvent struct {
	Event      string `json:"event"` // "remove"
	Generation uint64 `json:"generation"`
	File       string `json:"file"`
}

// genEvent closes a generation: what was re-checked, the function-cache
// counts proving how little work the edit cost, and the whole-tree verdict.
type genEvent struct {
	Event      string `json:"event"` // "generation"
	Generation uint64 `json:"generation"`
	// Checked and Removed count this generation's re-checked and retired
	// files; Files is the whole tree afterwards.
	Checked int `json:"checked"`
	Removed int `json:"removed"`
	Files   int `json:"files"`
	// Warnings counts this generation's diag events; TotalWarnings and
	// Errors describe the whole tree state.
	Warnings      int `json:"warnings"`
	TotalWarnings int `json:"total_warnings"`
	Errors        int `json:"errors"`
	// CacheHits/CacheMisses/CacheCoalesced sum the function-cache counters
	// of this generation's checked files (checker.Stats): a hit was served
	// from memory or belongs to a file served from disk, and misses count
	// exactly the functions walked (the incremental-work receipt).
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheCoalesced uint64 `json:"cache_coalesced"`
	// Truncated mirrors the walk's MaxFiles truncation flag: a capped
	// generation saw only a prefix of the tree (never silently).
	Truncated bool `json:"truncated,omitempty"`
	// Status is "clean" when the tree has zero warnings and zero file
	// errors, "dirty" otherwise — the line a CI tailer keys on.
	Status string `json:"status"`
}

// statsEvent is the on-demand telemetry snapshot (SIGUSR1 and exit):
// cumulative, so values are not byte-stable across runs.
type statsEvent struct {
	Event         string                 `json:"event"` // "stats"
	Generation    uint64                 `json:"generation"`
	Files         int                    `json:"files"`
	TotalWarnings int                    `json:"total_warnings"`
	Cache         checker.FuncCacheStats `json:"func_cache"`
	Reader        input.ReaderStats      `json:"reader"`
	Sched         scheduler.Stats        `json:"scheduler"`
}

// errorEvent reports a non-fatal daemon-level failure (an unwalkable tree on
// one rescan); the daemon stays up and retries on the next trigger.
type errorEvent struct {
	Event      string `json:"event"` // "error"
	Generation uint64 `json:"generation"`
	Error      string `json:"error"`
}

// emit writes one event as a single JSONL line. Callers hold d.mu, so lines
// never interleave even when a stats request lands mid-generation.
func emit(w io.Writer, ev any) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
