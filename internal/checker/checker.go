package checker

import (
	"context"
	"fmt"

	"repro/internal/cminor"
	"repro/internal/faults"
	"repro/internal/qdl"
	"repro/internal/scheduler"
)

// Diagnostic is a qualifier-checking warning. Code classifies the rule that
// fired: "base" (ordinary typechecking), "qual" (missing value qualifier),
// "restrict", "assign", "disallow", "addrof", "annotation", or "internal"
// (a checker panic recovered while walking one function).
type Diagnostic struct {
	Pos  cminor.Pos
	Code string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Code, d.Msg)
}

// Stats aggregates the counts the paper's evaluation tables report. Its
// JSON form is the "stats" object of qualserve's /check and /check-batch
// answers, which carries the six tagged counters.
type Stats struct {
	// Dereferences is the number of dereference sites (including desugared
	// array indexing), the denominator of Table 1.
	Dereferences int `json:"dereferences"`
	// Annotations counts qualifier occurrences in declared types, per
	// qualifier name.
	Annotations map[string]int `json:"-"`
	// QualCasts counts casts to types carrying each qualifier.
	QualCasts map[string]int `json:"-"`
	// RefUses counts r-value occurrences of each reference-qualified
	// variable (the "references validated" count of section 6.2 when the
	// program checks cleanly).
	RefUses map[string]int `json:"-"`
	// RestrictChecks / RestrictFailures count restrict-clause applications.
	RestrictChecks   int `json:"restrict_checks"`
	RestrictFailures int `json:"restrict_failures"`
	// MemoHits / MemoMisses count qualifier-derivation memo lookups (the
	// per-AST-node qualSet cache), the checker's analogue of the prover's
	// cache counters.
	MemoHits   int `json:"-"`
	MemoMisses int `json:"-"`
	// FuncCacheHits / FuncCacheMisses / FuncCacheCoalesced count
	// function-granular result cache lookups (CheckWithCache only; zero
	// otherwise) by the cache's own rule (see tiercache.Source). A hit means
	// the function's body walk was skipped and its cached diagnostics
	// replayed, whichever tier served them. Coalesced lookups joined another
	// request's in-flight fill instead of walking the body themselves.
	FuncCacheHits      int `json:"func_cache_hits"`
	FuncCacheMisses    int `json:"func_cache_misses"`
	FuncCacheCoalesced int `json:"func_cache_coalesced"`
}

// newStats returns zero statistics with their maps allocated: the engine
// counts into them, and every Result carries them.
func newStats() Stats {
	return Stats{Annotations: map[string]int{}, QualCasts: map[string]int{}, RefUses: map[string]int{}}
}

// Add folds o into s, allocating a map of s on the first entry it receives;
// o's maps may be nil (a child engine's are, and so are a function record's).
func (s *Stats) Add(o Stats) {
	s.Dereferences += o.Dereferences
	addCounts(&s.Annotations, o.Annotations)
	addCounts(&s.QualCasts, o.QualCasts)
	addCounts(&s.RefUses, o.RefUses)
	s.RestrictChecks += o.RestrictChecks
	s.RestrictFailures += o.RestrictFailures
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.FuncCacheHits += o.FuncCacheHits
	s.FuncCacheMisses += o.FuncCacheMisses
	s.FuncCacheCoalesced += o.FuncCacheCoalesced
}

// addCounts adds src's counts into *dst, allocating it for the first entry.
func addCounts(dst *map[string]int, src map[string]int) {
	if len(src) > 0 && *dst == nil {
		*dst = make(map[string]int, len(src))
	}
	for k, v := range src {
		(*dst)[k] += v
	}
}

// Result is the outcome of qualifier checking.
type Result struct {
	Diags []Diagnostic
	// ValueCasts counts the casts to value-qualified types, the sites
	// section 2.1.3 checks at run time (interp checks them itself under
	// RuntimeChecks).
	ValueCasts int
	Stats      Stats
	// Err is set when the run was cut short (context canceled or deadline
	// expired): diagnostics for functions not yet walked are missing, so an
	// absent warning is inconclusive rather than a clean bill.
	Err error
}

// Errors returns the diagnostics with the given codes (all when none given).
func (r *Result) Errors(codes ...string) []Diagnostic {
	if len(codes) == 0 {
		return r.Diags
	}
	want := map[string]bool{}
	for _, c := range codes {
		want[c] = true
	}
	var out []Diagnostic
	for _, d := range r.Diags {
		if want[d.Code] {
			out = append(out, d)
		}
	}
	return out
}

type engine struct {
	reg   *qdl.Registry
	tab   *tables // reg compiled (derive.go); shared read-only with child engines
	info  *cminor.TypeInfo
	prog  *cminor.Program
	memo  memo
	diags []Diagnostic
	stats Stats
	curFn *cminor.FuncDef

	// Flow-sensitivity state (the section 8 extension; see flow.go). env is
	// the current refinement environment (nil when empty); it stays empty
	// when flow is off.
	flow        bool
	env         refEnv
	addrTaken   map[string]bool
	globalNames map[string]bool

	// freshMemo caches returnsFresh results keyed by "fn|qual"; entries in
	// progress are pinned false (least fixpoint: recursion must bottom out
	// in a syntactically fresh return).
	freshMemo map[string]bool

	// Function-granular result cache state (see cache.go). fc is nil for
	// plain CheckWithContext runs; ctxKey is the context hash shared by every
	// function key of this run. ctx bounds flight waits on the coalescing
	// path (a canceled run stops waiting for another caller's walk).
	fc     *FuncCache
	ctxKey string
	ctx    context.Context
}

// Options configures qualifier checking.
type Options struct {
	// FlowSensitive enables branch-condition refinement (section 8): inside
	// "if (x != NULL)" the variable x additionally carries every value
	// qualifier whose invariant the condition implies.
	FlowSensitive bool
	// Concurrency is the worker count of the scheduler pool that walks the
	// program's functions: at most this many walks run at once. 0 means
	// runtime.GOMAXPROCS(0) (the scheduler's rule); 1 walks every function
	// on the calling goroutine, in declaration order. Diagnostics are merged
	// back into source order, so the result is identical at any setting.
	Concurrency int
	// Types supplies precomputed base type information (with TypeDiags, the
	// diagnostics the same cminor.TypeCheck run produced) so repeated checks
	// of one unchanged program skip re-typechecking. The caller must not
	// have mutated the program since the TypeCheck run. Nil means typecheck
	// here.
	Types     *cminor.TypeInfo
	TypeDiags []cminor.Diagnostic
}

// Check performs qualifier checking of prog against the registry's type
// rules and returns diagnostics, instrumentation points, and statistics.
func Check(prog *cminor.Program, reg *qdl.Registry) *Result {
	return CheckWith(prog, reg, Options{})
}

// CheckWith is Check with explicit options.
func CheckWith(prog *cminor.Program, reg *qdl.Registry, opts Options) *Result {
	return CheckWithContext(context.Background(), prog, reg, opts)
}

// CheckWithContext is CheckWith with cancellation: a canceled context stops
// the function-body walk early and records the cancellation on Result.Err
// (diagnostics gathered so far are still returned).
func CheckWithContext(ctx context.Context, prog *cminor.Program, reg *qdl.Registry, opts Options) *Result {
	return CheckWithCache(ctx, prog, reg, opts, nil)
}

// CheckWithCache is CheckWithContext backed by the cache's memory tier of
// function results: function bodies whose content-addressed key (function
// source text × registry fingerprint × options × program interface, see
// cache.go) is cached replay their stored diagnostics instead of being
// walked. A nil cache disables caching. Program-level passes (typechecking
// unless Options.Types is supplied, annotation validation, global
// initializers, the address-of pass, statistics collection) always run; only
// body walks are reused. The disk tier is never consulted: its records are
// keyed by a file's bytes, which a parsed program no longer carries (see
// CheckSource). Safe for concurrent use with a shared cache.
//
// The program must be unchanged since Parse built it, the same contract
// Options.Types states: a function is keyed by the text Parse recorded in
// FuncDef.Src, so a declaration rewritten in place would replay the old
// text's results. A FuncDef with an empty Src is walked uncached.
func CheckWithCache(ctx context.Context, prog *cminor.Program, reg *qdl.Registry, opts Options, fc *FuncCache) *Result {
	var res *Result
	tab := tablesFor(reg)
	scheduler.Run(opts.Concurrency, func(c *scheduler.Ctx) {
		checkProgram(ctx, c, prog, tab, opts, fc, func(r *Result) { res = r })
	})
	return res
}

// CheckSource parses src as the file name and checks it as its own program,
// consulting fc's disk tier of file records first when one is attached: a
// stored record replays under name without parsing, and a file checked in
// full is stored for the next run. Otherwise it is CheckWithCache of the
// parsed program, typechecked here: opts.Types and opts.TypeDiags are
// ignored. A parse failure is returned as the error. A replayed Result counts
// no ValueCasts; its Stats count every function of the file as a cache hit.
func CheckSource(ctx context.Context, name, src string, reg *qdl.Registry, opts Options, fc *FuncCache) (*Result, error) {
	var res *Result
	var err error
	tab := tablesFor(reg)
	scheduler.Run(opts.Concurrency, func(c *scheduler.Ctx) {
		checkSource(ctx, c, name, src, tab, opts, fc, func(r *Result, e error) { res, err = r, e })
	})
	return res, err
}

// checkSource is one source file's pool task, shared by CheckSource and the
// tree checker's per-file task. With a disk tier attached it looks the file
// up before parsing, and a hit replays the record: no parse, no typecheck,
// no context key, no function lookup. A miss parses and runs checkProgram,
// whose completion stores the file's record. done receives the result, or
// the parse error. It owns the parse, so it typechecks the program it parsed
// and ignores opts.Types and opts.TypeDiags, which can only describe some
// other program.
func checkSource(ctx context.Context, c *scheduler.Ctx, name, src string, tab *tables, opts Options, fc *FuncCache, done func(*Result, error)) {
	opts.Types, opts.TypeDiags = nil, nil
	key := ""
	// A replay fault bypasses the disk tier entirely, as it bypasses the
	// memory tier in checkFuncCached: the file is checked afresh and not
	// stored.
	if fc != nil && fc.disk != nil && fpCacheReplay.FireErr() == nil {
		key = fileKey(tab, opts, src)
		if rec, ok := fc.lookupFile(key); ok {
			res := &Result{Stats: newStats()}
			res.Diags = rec.replay(name, 0, nil, &res.Stats)
			done(res, nil)
			return
		}
	}
	prog, err := cminor.Parse(name, src, tab.qualNames)
	if err != nil {
		done(nil, err)
		return
	}
	checkProgram(ctx, c, prog, tab, opts, fc, func(res *Result) {
		if key != "" {
			fc.storeFile(key, name, res)
		}
		done(res, nil)
	})
}

// checkProgram is one program's pool task, shared by CheckWithCache and
// checkSource: it builds the engine and runs the
// program-level passes, then spawns one unit per function. Functions are
// independent: the only engine state a body walk touches is its own
// diagnostics, restrict counters, derivation memo, and refinement
// environment, so each unit walks on a private child engine sharing the
// immutable registry/type-info/clause tables; its memo covers the function's
// node numbers. The unit that finishes last merges the walks in source
// (declaration) order — so the result is byte-identical at any worker count
// — runs the post-function passes, and hands the Result to done. A canceled context stops the walks: bodies not
// yet walked report nothing (Result.Err marks the run inconclusive).
func checkProgram(ctx context.Context, c *scheduler.Ctx, prog *cminor.Program, tab *tables, opts Options, fc *FuncCache, done func(*Result)) {
	en := newEngine(ctx, prog, tab, opts, fc)
	en.preFuncPasses()
	funcs := prog.Funcs
	walks := make([]funcWalk, len(funcs))
	c.Fan(len(funcs), func(_ *scheduler.Ctx, i int) {
		if ctx.Err() == nil {
			child := en.childEngine(funcs[i])
			child.checkFuncCached(funcs[i])
			walks[i] = funcWalk{child.diags, child.stats}
		}
	}, func() {
		for _, w := range walks {
			en.diags = append(en.diags, w.diags...)
			en.stats.Add(w.stats)
		}
		en.addrOfPass()
		done(en.finishResult(ctx))
	})
}

// funcWalk is what one function's walk contributes to its program's result.
// Keeping only this, not the child engine, lets each walk's derivation memo
// be collected as soon as the walk ends.
type funcWalk struct {
	diags []Diagnostic
	stats Stats
}

// newEngine builds a checking engine and runs every pass that precedes the
// per-function walks: typechecking (unless precomputed), flow precomputation,
// context-key derivation, base diagnostics, and annotation validation. Its
// own memo covers no node numbers: the file-level engine derives only for
// global initializers, which its memo keeps by node.
func newEngine(ctx context.Context, prog *cminor.Program, tab *tables, opts Options, fc *FuncCache) *engine {
	info, baseDiags := opts.Types, opts.TypeDiags
	if info == nil {
		info, baseDiags = cminor.TypeCheck(prog)
	}
	en := &engine{
		reg:   tab.reg,
		tab:   tab,
		info:  info,
		prog:  prog,
		flow:  opts.FlowSensitive,
		ctx:   ctx,
		stats: newStats(),
	}
	en.prepareFlow()
	if fc != nil {
		en.fc = fc
		en.ctxKey = en.contextKey(opts)
	}
	for _, d := range baseDiags {
		en.diags = append(en.diags, Diagnostic{Pos: d.Pos, Code: "base", Msg: d.Msg})
	}
	en.validateAnnotations()
	return en
}

// finishResult runs the post-function statistics walk (cast collection,
// dereference and reference-use counts) and packages the Result.
func (en *engine) finishResult(ctx context.Context) *Result {
	result := &Result{Diags: en.diags, Stats: en.stats, Err: ctx.Err()}
	// Count value-qualified casts and the statistics.
	cminor.Walk(en.prog, cminor.Visitor{
		Expr: func(e cminor.Expr) {
			if c, ok := e.(*cminor.Cast); ok {
				for _, q := range cminor.QualsOf(c.Type) {
					en.stats.QualCasts[q]++
				}
				if en.tab.valueSet(c.Type) != 0 {
					result.ValueCasts++
				}
			}
		},
		LValue: func(lv cminor.LValue) {
			if _, ok := lv.(*cminor.DerefLV); ok {
				en.stats.Dereferences++
			}
			if v, ok := lv.(*cminor.VarLV); ok {
				if def := en.info.VarDef(v); def != nil && len(en.refQualsOf(def.Type)) > 0 {
					en.stats.RefUses[v.Name]++
				}
			}
		},
	})
	result.Stats = en.stats
	return result
}

func (en *engine) errorf(pos cminor.Pos, code, format string, args ...interface{}) {
	en.diags = append(en.diags, Diagnostic{Pos: pos, Code: code, Msg: fmt.Sprintf(format, args...)})
}

// prepareFlow precomputes the address-taken and global-name sets used by
// refinement (cheap even when flow is off; addrTaken also serves Infer's
// exclusions in spirit).
func (en *engine) prepareFlow() {
	en.addrTaken = map[string]bool{}
	en.globalNames = map[string]bool{}
	for _, g := range en.prog.Globals {
		en.globalNames[g.Name] = true
	}
	cminor.Walk(en.prog, cminor.Visitor{Expr: func(e cminor.Expr) {
		if ao, ok := e.(*cminor.AddrOf); ok {
			if v, ok := ao.LV.(*cminor.VarLV); ok {
				en.addrTaken[v.Name] = true
			}
		}
	}})
}

// ---- Annotation validation ----

// validateAnnotations checks every qualifier occurrence in a declared type:
// the qualifier's subject type pattern must match the type it annotates, and
// Var-classified reference qualifiers may only annotate variables.
func (en *engine) validateAnnotations() {
	for _, g := range en.prog.Globals {
		en.checkAnnotations(g.Pos, g.Type, true, true, "global ", g.Name)
	}
	for _, st := range en.prog.Structs {
		for _, f := range st.Fields {
			en.checkAnnotations(f.Pos, f.Type, true, false, "field "+st.Name+".", f.Name)
		}
	}
	for _, f := range en.prog.Funcs {
		en.checkAnnotations(f.Pos, f.Result, true, false, "result of ", f.Name)
		for _, p := range f.Params {
			en.checkAnnotations(p.Pos, p.Type, true, true, "parameter ", p.Name)
		}
		if f.Body != nil {
			cminor.WalkStmt(f.Body, cminor.Visitor{Decl: func(d *cminor.VarDecl) {
				en.checkAnnotations(d.Pos, d.Type, true, true, "local ", d.Name)
			}})
		}
	}
}

// checkAnnotations validates the qualifiers in t, declared at pos for what+name
// (a variable's when isVariable); top marks t as the declared type itself
// rather than a type under it.
func (en *engine) checkAnnotations(pos cminor.Pos, t cminor.Type, top, isVariable bool, what, name string) {
	switch t := t.(type) {
	case cminor.QualType:
		for _, q := range t.Quals {
			en.stats.Annotations[q]++
			d := en.reg.Lookup(q)
			if d == nil {
				en.errorf(pos, "annotation", "unknown qualifier %s on %s%s", q, what, name)
				continue
			}
			if !d.Subject.Type.Matches(t.Base) {
				en.errorf(pos, "annotation", "qualifier %s applies to %s types, but annotates %s (%s%s)", q, d.Subject.Type, t.Base, what, name)
			}
			if d.Kind == qdl.RefQualifier && d.Subject.Classifier == qdl.ClassVar && (!top || !isVariable) {
				en.errorf(pos, "annotation", "qualifier %s applies only to variables (%s%s)", q, what, name)
			}
		}
		en.checkAnnotations(pos, t.Base, false, isVariable, what, name)
	case cminor.PointerType:
		en.checkAnnotations(pos, t.Elem, false, isVariable, what, name)
	case cminor.ArrayType:
		en.checkAnnotations(pos, t.Elem, false, isVariable, what, name)
	}
}

// ---- Main checking pass ----

// preFuncPasses runs the program-level passes that precede the function-body
// walks: global-initializer checking. Diagnostics emitted here land before any
// function's in en.diags, matching source order.
func (en *engine) preFuncPasses() {
	for _, g := range en.prog.Globals {
		if g.Init != nil {
			en.visitExprTree(g.Init)
			en.checkAssignTo(g.Pos, g.Type, g.Init, func() string { return "initialization of " + g.Name })
		}
	}
}

// checkFunc checks one function body under a fresh refinement environment.
func (en *engine) checkFunc(f *cminor.FuncDef) {
	if f.Body == nil {
		return
	}
	en.curFn = f
	en.env = nil
	en.checkStmt(f.Body)
	en.curFn = nil
}

// CheckFuncHook, when non-nil, runs on the walking goroutine before every
// function-body walk. Tests (including cross-package server tests) use it to
// inject faults or to hold a FuncCache flight open while concurrent lookups
// coalesce behind the leader. Production code leaves it nil.
var CheckFuncHook func(f *cminor.FuncDef)

// fpCheckWalk injects faults into the body walk; see internal/faults. Panics
// are contained by safeCheckFunc's recovery, errors degrade to an "internal"
// diagnostic — both transient, so newFileRecord refuses to cache them.
var fpCheckWalk = faults.Register("checker.walk")

// safeCheckFunc walks one function body, converting a panic anywhere in the
// walk into an "internal" diagnostic on that function, so one pathological
// body cannot take down the whole check.
func (en *engine) safeCheckFunc(f *cminor.FuncDef) {
	defer func() {
		if r := recover(); r != nil {
			en.errorf(f.Pos, "internal", "checker panic in function %s: %v", f.Name, r)
		}
	}()
	if CheckFuncHook != nil {
		CheckFuncHook(f)
	}
	if err := fpCheckWalk.Fire(); err != nil {
		en.errorf(f.Pos, "internal", "checker fault in function %s: %v", f.Name, err)
		return
	}
	en.checkFunc(f)
}

// childEngine clones the engine for walking f: immutable tables (registry,
// compiled clauses, type info, flow precomputation) are shared; diagnostic,
// statistic, memo, and environment state is private. The memo covers f's
// node numbers.
func (en *engine) childEngine(f *cminor.FuncDef) *engine {
	return &engine{
		reg:         en.reg,
		tab:         en.tab,
		info:        en.info,
		prog:        en.prog,
		memo:        memo{r: f.Nodes},
		flow:        en.flow,
		addrTaken:   en.addrTaken,
		globalNames: en.globalNames,
		fc:          en.fc,
		ctxKey:      en.ctxKey,
		ctx:         en.ctx,
	}
}

// checkStmt checks one statement under the current refinement environment,
// leaving en.env updated with the statement's kills (but not with inner
// branches' refinements).
func (en *engine) checkStmt(s cminor.Stmt) {
	switch s := s.(type) {
	case *cminor.Block:
		for _, inner := range s.Stmts {
			en.checkStmt(inner)
		}
	case *cminor.DeclStmt:
		if s.Decl.Init != nil {
			en.visitExprTree(s.Decl.Init)
			en.checkAssignTo(s.Pos, s.Decl.Type, s.Decl.Init, func() string { return "initialization of " + s.Decl.Name })
		}
		delete(en.env, s.Decl.Name) // a fresh declaration shadows refinements
	case *cminor.InstrStmt:
		en.checkInstr(s.Instr)
		if en.flow {
			en.env = en.applyKills(en.env, collectKills(s, en.info))
		}
	case *cminor.If:
		en.visitExprTree(s.Cond)
		saved := en.env
		if en.flow {
			en.env = saved.merge(en.refinementsFromCond(s.Cond, false))
		}
		en.checkStmt(s.Then)
		var thenKills, elseKills map[string]bool
		if en.flow {
			thenKills = collectKills(s.Then, en.info)
		}
		if s.Else != nil {
			en.env = saved
			if en.flow {
				en.env = saved.merge(en.refinementsFromCond(s.Cond, true))
			}
			en.checkStmt(s.Else)
			if en.flow {
				elseKills = collectKills(s.Else, en.info)
			}
		}
		after := saved
		// Early-exit refinement: when the then-branch never falls through,
		// the code after the if runs only under the negated condition.
		if en.flow && s.Else == nil && terminates(s.Then) {
			after = saved.merge(en.refinementsFromCond(s.Cond, true))
		}
		if en.flow {
			after = en.applyKills(en.applyKills(after, thenKills), elseKills)
		}
		en.env = after
	case *cminor.While:
		// Loop bodies run after arbitrary iterations: check cond and body
		// under the environment weakened by everything the body may kill.
		if en.flow {
			en.env = en.applyKills(en.env, collectKills(s.Body, en.info))
		}
		en.visitExprTree(s.Cond)
		en.checkStmt(s.Body)
	case *cminor.For:
		if s.Init != nil {
			en.checkStmt(s.Init)
		}
		if en.flow {
			kills := collectKills(s.Body, en.info)
			if s.Post != nil {
				for k, v := range collectKills(s.Post, en.info) {
					if v {
						kills[k] = true
					}
				}
			}
			en.env = en.applyKills(en.env, kills)
		}
		if s.Cond != nil {
			en.visitExprTree(s.Cond)
		}
		if s.Post != nil {
			en.checkStmt(s.Post)
		}
		en.checkStmt(s.Body)
	case *cminor.Return:
		if s.X != nil {
			en.visitExprTree(s.X)
		}
		if s.X != nil && en.curFn != nil {
			// Ownership transfer (the fresh extension): returning a
			// ref-qualified local whose qualifier has a fresh assign rule
			// is the sanctioned way to move a unique reference out, so the
			// disallow-refer check does not apply to it (the rest of the
			// assignment checks still do).
			skipDisallow := false
			if lve, ok := s.X.(*cminor.LVExpr); ok && en.freshTransferReturn(lve) {
				skipDisallow = true
			}
			en.checkAssignToWith(s.Pos, en.curFn.Result, s.X, func() string { return "return from " + en.curFn.Name }, skipDisallow)
		}
	}
}

// visitExprTree applies the restrict rules to every expression and
// dereference in e, under the current refinement environment.
func (en *engine) visitExprTree(e cminor.Expr) {
	cminor.WalkExpr(e, cminor.Visitor{
		Expr:   en.restrictExpr,
		LValue: en.restrictLValue,
	})
}

// visitLValueTree applies the restrict rules inside an l-value (assignment
// targets contain expressions too: indices and deref addresses).
func (en *engine) visitLValueTree(lv cminor.LValue) {
	cminor.WalkLValue(lv, cminor.Visitor{
		Expr:   en.restrictExpr,
		LValue: en.restrictLValue,
	})
}

func (en *engine) restrictExpr(e cminor.Expr) {
	if _, ok := e.(*cminor.LVExpr); ok {
		return // l-values are matched via restrictLValue
	}
	cs := en.tab.rExpr[headOf(e)]
	if len(cs) == 0 {
		return
	}
	et := en.info.TypeOf(e)
	for _, c := range cs {
		var b bindings
		if !en.matchClause(c, e, et, &b) {
			continue
		}
		en.stats.RestrictChecks++
		if c.where != nil && !en.evalWhere(c.where, &b, nil, 0) {
			en.stats.RestrictFailures++
			en.errorf(e.Position(), "restrict", "%s violates qualifier %s's restrict rule: %s",
				cminor.ExprString(e), c.def.Name, c.src)
		}
	}
}

func (en *engine) restrictLValue(lv cminor.LValue) {
	dlv, ok := lv.(*cminor.DerefLV)
	if !ok {
		return
	}
	for _, c := range en.tab.rDeref {
		if c.kind != patDeref {
			continue
		}
		var b bindings
		if !en.bindExpr(&c.x, dlv.Addr, nil, &b) {
			continue
		}
		en.stats.RestrictChecks++
		if c.where != nil && !en.evalWhere(c.where, &b, nil, 0) {
			en.stats.RestrictFailures++
			en.errorf(dlv.Pos, "restrict", "dereference of %s violates qualifier %s's restrict rule: %s",
				cminor.ExprString(dlv.Addr), c.def.Name, c.src)
		}
	}
}

func (en *engine) checkInstr(in cminor.Instr) {
	switch in := in.(type) {
	case *cminor.Assign:
		en.visitLValueTree(in.LHS)
		en.visitExprTree(in.RHS)
		lt := en.info.LVTypeOf(in.LHS)
		en.checkNoAssign(in.Pos, lt, in.LHS)
		en.checkAssignTo(in.Pos, lt, in.RHS, func() string { return "assignment to " + cminor.LValueString(in.LHS) })
	case *cminor.CallInstr:
		if in.LHS != nil {
			en.visitLValueTree(in.LHS)
		}
		for _, a := range in.Args {
			en.visitExprTree(a)
		}
		fn, ok := en.info.Funcs[in.Fn]
		if !ok {
			return // base diagnostics already cover it
		}
		sig := fn.Signature()
		for i, a := range in.Args {
			if i < len(sig.Params) {
				en.checkAssignTo(a.Position(), sig.Params[i], a,
					func() string { return fmt.Sprintf("argument %d of %s", i+1, in.Fn) })
			} else {
				// Variadic arguments still may not leak disallowed values.
				en.disallowValueFlow(a, true)
			}
		}
		if in.LHS != nil {
			en.checkCallResult(in, sig.Result)
		}
	}
}

// checkNoAssign flags assignments to l-values carrying a noassign
// reference qualifier (the const-style extension): their value is fixed at
// declaration.
func (en *engine) checkNoAssign(pos cminor.Pos, lt cminor.Type, lhs cminor.LValue) {
	for _, q := range en.refQualsOf(lt) {
		if en.reg.Lookup(q).NoAssign {
			en.errorf(pos, "assign", "%s l-value %s may not be assigned after its declaration",
				q, cminor.LValueString(lhs))
		}
	}
}

// checkCallResult checks the implicit assignment of a call's result to its
// destination l-value.
func (en *engine) checkCallResult(in *cminor.CallInstr, resultType cminor.Type) {
	lt := en.info.LVTypeOf(in.LHS)
	en.checkNoAssign(in.Pos, lt, in.LHS)
	// Reference qualifiers with assign rules: a call result matches no
	// syntactic pattern (the paper's section 6.2 hits exactly this for
	// dfa's initialization) — unless a "fresh" assign clause is present and
	// the callee provably returns a fresh reference (the section 2.2.1
	// extension).
	for _, q := range en.refQualsOf(lt) {
		d := en.reg.Lookup(q)
		if len(d.Assigns) == 0 {
			continue
		}
		if !d.HasFreshAssign() || !en.returnsFresh(in.Fn, q) {
			en.errorf(in.Pos, "assign",
				"cannot validate assignment of %s's result to %s l-value %s: no assign rule matches a call result",
				in.Fn, q, cminor.LValueString(in.LHS))
		}
	}
	// Value qualifiers: the declared result type must carry them.
	resultQuals := en.tab.valueSet(resultType)
	for _, q := range cminor.QualsOf(lt) {
		if bit := en.tab.bit(q); bit != 0 && !resultQuals.has(bit) {
			en.errorf(in.Pos, "qual",
				"result of %s (type %s) lacks qualifier %s required by %s",
				in.Fn, resultType, q, cminor.LValueString(in.LHS))
		}
	}
	en.checkDeepTypes(in.Pos, lt, resultType, func() string { return "result of " + in.Fn })
}

// freshTransferReturn reports whether the returned l-value is a
// ref-qualified local of a qualifier that declares a fresh assign rule.
func (en *engine) freshTransferReturn(lve *cminor.LVExpr) bool {
	v, ok := lve.LV.(*cminor.VarLV)
	if !ok {
		return false
	}
	def := en.info.VarDef(v)
	if def == nil || def.Kind != cminor.LocalVar {
		return false
	}
	for _, q := range en.refQualsOf(def.Type) {
		if en.reg.Lookup(q).HasFreshAssign() {
			return true
		}
	}
	return false
}

// returnsFresh reports whether every return of fn yields a fresh reference
// for qualifier q: a q-qualified LOCAL variable (whose invariant holds and
// whose stack cell — the only permitted reference — dies at the return), or
// transitively the result of another fresh-returning call bound to such a
// local. Parameters and globals do not qualify: their cells outlive the
// call.
func (en *engine) returnsFresh(fnName, q string) bool {
	key := fnName + "|" + q
	if v, ok := en.freshMemo[key]; ok {
		return v
	}
	if en.freshMemo == nil {
		en.freshMemo = map[string]bool{}
	}
	en.freshMemo[key] = false // pin recursive calls false
	fn, ok := en.info.Funcs[fnName]
	if !ok || fn.Body == nil {
		return false
	}
	sawReturn := false
	fresh := true
	cminor.WalkStmt(fn.Body, cminor.Visitor{Stmt: func(s cminor.Stmt) {
		ret, isRet := s.(*cminor.Return)
		if !isRet || ret.X == nil {
			return
		}
		sawReturn = true
		lve, isLV := ret.X.(*cminor.LVExpr)
		if !isLV {
			fresh = false
			return
		}
		v, isVar := lve.LV.(*cminor.VarLV)
		if !isVar {
			fresh = false
			return
		}
		def := en.info.VarDef(v)
		if def == nil || def.Kind != cminor.LocalVar || !cminor.HasQual(def.Type, q) {
			fresh = false
		}
	}})
	result := sawReturn && fresh
	en.freshMemo[key] = result
	return result
}

// checkAssignTo checks an explicit or implicit assignment of rhs into a
// location of declared type dst. what describes the assignment for
// diagnostics; it is a thunk so the common no-diagnostic path never builds
// the string.
func (en *engine) checkAssignTo(pos cminor.Pos, dst cminor.Type, rhs cminor.Expr, what func() string) {
	en.checkAssignToWith(pos, dst, rhs, what, false)
}

// checkAssignToWith is checkAssignTo with the disallow flow check optionally
// skipped (fresh ownership-transfer returns).
func (en *engine) checkAssignToWith(pos cminor.Pos, dst cminor.Type, rhs cminor.Expr, what func() string, skipDisallow bool) {
	// Reference qualifiers on the destination: the right-hand side must
	// match one of the qualifier's assign clauses (when it declares any).
	for _, q := range en.refQualsOf(dst) {
		d := en.reg.Lookup(q)
		if len(d.Assigns) == 0 {
			continue // ondecl-style qualifiers accept any type-correct value
		}
		if !en.matchesAssignClauses(d, dst, rhs) {
			en.errorf(pos, "assign", "%s: right-hand side %s matches no assign rule of qualifier %s",
				what(), cminor.ExprString(rhs), q)
		}
	}
	// Value qualifiers on the destination: derivable on the right-hand side
	// (implicit subtyping lets extra qualifiers on rhs be dropped).
	set := en.qualSet(rhs)
	for _, q := range cminor.QualsOf(dst) {
		if bit := en.tab.bit(q); bit != 0 && !set.has(bit) {
			en.errorf(pos, "qual", "%s: %s cannot be given qualifier %s (a cast would insert a run-time check)",
				what(), cminor.ExprString(rhs), q)
		}
	}
	// Deeper qualifiers admit no subtyping (section 2.1.2).
	en.checkDeepTypes(pos, dst, en.rTypeOf(rhs), what)
	// Disallow rules on the flowing value.
	if !skipDisallow {
		en.disallowValueFlow(rhs, true)
	}
}

// rTypeOf returns the r-type of an expression: its recorded type with
// top-level reference qualifiers stripped.
func (en *engine) rTypeOf(e cminor.Expr) cminor.Type {
	t := en.info.TypeOf(e)
	return cminor.WithoutQuals(t, en.refQualsOf(t))
}

// checkDeepTypes enforces invariance of qualifiers below the top level:
// int pos* is neither a subtype nor a supertype of int*.
func (en *engine) checkDeepTypes(pos cminor.Pos, dst, src cminor.Type, what func() string) {
	if isNullish(src) {
		return
	}
	dp, dok := cminor.PointeeOf(cminor.Decay(dst))
	sp, sok := cminor.PointeeOf(cminor.Decay(src))
	if !dok || !sok {
		return
	}
	// void* on either side converts freely (C compatibility; malloc).
	if _, ok := cminor.StripQuals(dp).(cminor.VoidType); ok {
		return
	}
	if _, ok := cminor.StripQuals(sp).(cminor.VoidType); ok {
		return
	}
	if !cminor.TypeEqual(cminor.Decay(dp), cminor.Decay(sp)) {
		en.errorf(pos, "qual", "%s: pointee types %s and %s must agree exactly (no subtyping under pointers)",
			what(), dp, sp)
	}
}

func isNullish(t cminor.Type) bool {
	pt, ok := cminor.StripQuals(t).(cminor.PointerType)
	if !ok {
		return false
	}
	_, isVoid := cminor.StripQuals(pt.Elem).(cminor.VoidType)
	return isVoid
}

// matchesAssignClauses reports whether rhs matches one of d's assign rules
// for a destination of type dst.
func (en *engine) matchesAssignClauses(d *qdl.Def, dst cminor.Type, rhs cminor.Expr) bool {
	ad := en.tab.assigns[d]
	if ad == nil {
		return false
	}
	// The subject's type pattern is matched against the destination once,
	// as matchesAnyCase probes it once for all cases.
	var probe bindings
	if !matchType(&ad.subj, dst, &probe) {
		return false
	}
	rt := en.info.TypeOf(rhs)
	for _, c := range ad.cases {
		b := probe
		if !en.matchClause(c, rhs, rt, &b) {
			continue
		}
		if c.where != nil && !en.evalWhere(c.where, &b, rhs, 0) {
			continue
		}
		return true
	}
	return false
}

// ---- Disallow enforcement ----

// disallowValueFlow flags occurrences of disallow-refer qualified l-values
// whose value flows into the assigned value. Occurrences consumed as a
// dereference address do not copy the value and are allowed ("a unique
// l-value may still be dereferenced", section 2.2.1).
func (en *engine) disallowValueFlow(e cminor.Expr, valuePos bool) {
	switch e := e.(type) {
	case *cminor.LVExpr:
		if valuePos {
			for _, q := range en.refQualsOf(en.info.LVTypeOf(e.LV)) {
				if en.reg.Lookup(q).Disallow.Refer {
					en.errorf(e.Pos, "disallow", "%s l-value %s may not be referred to here",
						q, cminor.LValueString(e.LV))
				}
			}
		}
		en.disallowAddrWalk(e.LV)
	case *cminor.AddrOf:
		// &*p evaluates to p's value; &x/&x.f are handled by the global
		// address-of pass.
		if d, ok := e.LV.(*cminor.DerefLV); ok {
			en.disallowValueFlow(d.Addr, valuePos)
		}
	case *cminor.Unop:
		en.disallowValueFlow(e.X, valuePos)
	case *cminor.Binop:
		en.disallowValueFlow(e.L, valuePos)
		en.disallowValueFlow(e.R, valuePos)
	case *cminor.Cast:
		en.disallowValueFlow(e.X, valuePos)
	case *cminor.NewExpr:
		en.disallowValueFlow(e.Size, false)
	}
}

// disallowAddrWalk descends into the address computations of an l-value;
// values read there are addresses, not copies.
func (en *engine) disallowAddrWalk(lv cminor.LValue) {
	switch lv := lv.(type) {
	case *cminor.DerefLV:
		en.disallowValueFlow(lv.Addr, false)
	case *cminor.FieldLV:
		en.disallowAddrWalk(lv.Base)
	}
}

// addrOfPass flags taking the address of reference-qualified l-values. For
// qualifiers with "disallow &X" this is their declared rule; for all other
// reference qualifiers it is the frame condition our preservation
// obligations assume (see DESIGN.md): no pointer to a reference-qualified
// l-value may be created.
func (en *engine) addrOfPass() {
	cminor.Walk(en.prog, cminor.Visitor{Expr: func(e cminor.Expr) {
		ao, ok := e.(*cminor.AddrOf)
		if !ok {
			return
		}
		if _, isDeref := ao.LV.(*cminor.DerefLV); isDeref {
			return // &*p is p, not an address-of
		}
		for _, q := range en.refQualsOf(en.info.LVTypeOf(ao.LV)) {
			d := en.reg.Lookup(q)
			why := "the frame condition for reference qualifiers"
			if d.Disallow.AddrOf {
				why = "its disallow clause"
			}
			en.errorf(ao.Pos, "addrof", "cannot take the address of %s l-value %s (%s)",
				q, cminor.LValueString(ao.LV), why)
		}
	}})
}
