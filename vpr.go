// Package vpr is the public face of this repository: a from-scratch,
// cycle-accurate reproduction of "Virtual-Physical Registers" (A. González,
// J. González, M. Valero; HPCA 1998) as a Go library.
//
// The paper proposes delaying the allocation of physical registers from the
// decode stage (conventional renaming) to the issue or write-back stage,
// tracking dependences meanwhile through storage-less virtual-physical
// register tags. This package exposes:
//
//   - Engine, the one way to run a simulation: New builds one with
//     functional options (WithParallelism, WithCache, WithProgress),
//     Engine.Run simulates one workload × machine configuration point,
//     Engine.RunSMT and Engine.RunMulticore one multithreaded or
//     multi-core machine, Engine.RunBatch fans a spec list out over a
//     worker pool with cancellation and a deterministic result cache, and
//     Engine.RunExperiment executes any named experiment from the registry,
//   - the experiment registry (Experiments): every table and figure of the
//     paper's evaluation (Table 2, Figures 4–7), four ablations, the SMT
//     future-work study and the register-lifetime study, each a named,
//     data-driven experiment that builds a spec list and reduces results,
//   - pluggable stage policies and probes (Policies, WithProbe): the SMT
//     fetch policy and the issue-select heuristic are small interfaces
//     looked up by name in a policy registry (FetchPolicies,
//     IssueSelects), and a Probe observes kernel events — dispatch,
//     issue, completion, commit, squash, allocation refusal — cycle by
//     cycle without allocating on the hot path,
//   - the workload catalog named after the paper's SPEC95 benchmarks,
//   - the §3.1 analytic register-pressure model (ChainPressure),
//   - an assembler for the mini-ISA, so custom workloads can be written
//     as assembly text and simulated like the built-in kernels,
//   - trace tooling (DumpTrace, OpenTrace, MeasureTraceMix) for inspecting
//     and persisting the committed-path traces that drive the simulator.
//
// Everything underneath — ISA, assembler, functional emulator, trace
// layer, branch predictor, lockup-free cache, renaming schemes, the
// out-of-order pipeline, the batch engine and the experiment registry —
// lives in internal packages; this package is the supported API surface.
// See README.md for a quickstart and the experiment registry reference.
package vpr

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Scheme selects a register renaming scheme.
type Scheme = core.Scheme

// The three schemes the paper compares.
const (
	SchemeConventional = core.SchemeConventional // R10000-style, allocate at decode
	SchemeVPWriteback  = core.SchemeVPWriteback  // virtual-physical, allocate at write-back
	SchemeVPIssue      = core.SchemeVPIssue      // virtual-physical, allocate at issue
)

// Config is the full machine description (§4.1 of the paper by default).
type Config = pipeline.Config

// RenameParams sizes the renamer (physical registers, NRR, ...).
type RenameParams = core.Params

// Disambiguation selects the memory-ordering policy for loads.
type Disambiguation = pipeline.Disambiguation

// The two memory-disambiguation policies.
const (
	DisambSpeculative  = pipeline.DisambSpeculative  // PA-8000-style address reorder buffer
	DisambConservative = pipeline.DisambConservative // loads wait for older store addresses
)

// Stats is the statistics block a run produces.
type Stats = pipeline.Stats

// RunSpec describes one simulation (workload or custom generator, machine
// configuration, instruction budget). Set GenID when supplying a custom
// generator that should participate in result caching.
type RunSpec = sim.Spec

// Result is a completed run.
type Result = sim.Result

// SMTSpec and SMTResult describe direct multithreaded runs.
type (
	SMTSpec   = sim.SMTSpec
	SMTResult = sim.SMTResult
)

// MulticoreSpec and MulticoreResult describe multi-core runs: one
// workload per core (a catalog kernel, or a synthetic preset named
// "synth:<preset>" — see SynthWorkloadPrefix), each core a full
// single-thread pipeline with a private lockup-free L1, all cores stepped
// in cycle-lockstep behind a banked finite shared L2 (internal/mem). Set
// SharedAddressSpace to let cores share L2 lines, and Coherence to run
// a directory protocol over them: stores then invalidate remote L1
// copies through an ownership/upgrade path, dirty remote lines are
// forwarded over the bank bus, and the traffic surfaces as
// Stats.L2Invalidations / L2Upgrades / L2WritebackForwards. Protocol
// selects the state machine — "msi" (the pinned default), "mesi" (silent
// E→M upgrades, Stats.SilentUpgrades), or "moesi" (cache-to-cache dirty
// forwarding, Stats.L2OwnerForwards) — and Directory the sharer
// representation: "fullmap" (exact bitmask, ≤64 cores) or "limited:N"
// (N pointers, broadcast on overflow, no core cap;
// Stats.L2DirOverflows / L2DirBroadcasts). With Coherence unset, runs
// are byte-identical to the coherence-free hierarchy.
type (
	MulticoreSpec   = sim.MulticoreSpec
	MulticoreResult = sim.MulticoreResult
)

// SynthWorkloadPrefix marks a multicore workload name as a synthetic
// preset ("synth:sharing" is the coherence experiment's sharing-heavy
// stream) rather than a catalog kernel.
const SynthWorkloadPrefix = sim.SynthWorkloadPrefix

// StepMode selects how a multi-core run advances its cores:
// StepLockstep (the default) is the serial oracle, StepParallel runs one
// goroutine per core under a per-cycle barrier, and StepSkew(W) lets
// cores free-run up to W cycles ahead ("skew:inf" unbounded) with every
// shared-memory interaction still applied in the oracle's global (cycle,
// core-index) order. All modes produce bit-identical statistics and
// commit streams; only host throughput differs.
type StepMode = pipeline.StepMode

// Step-mode re-exports; see pipeline.ParseStepMode for the spellings.
const (
	StepLockstep = pipeline.StepLockstep
	StepParallel = pipeline.StepParallel
)

// StepSkew returns the skew-window stepping mode with window w (< 0 =
// unbounded).
func StepSkew(w int64) StepMode { return pipeline.StepSkew(w) }

// ParseStepMode validates a -step flag value — "lockstep", "parallel",
// "skew:W" or "skew:inf" — and returns its plan's canonical spelling.
func ParseStepMode(s string) (StepMode, error) { return pipeline.ParseStepMode(s) }

// L2Config sizes the banked shared L2 of a multi-core run; the zero
// value (Enabled=false) gives every core a private infinite-L2 hierarchy
// — the paper's machine per core.
type L2Config = mem.L2Config

// DefaultL2Config is a 256 KB, 4-bank shared L2 (L2 hits 20 cycles,
// misses 100, 4-cycle bank bus per line transfer).
func DefaultL2Config() L2Config { return mem.DefaultL2Config() }

// ParseL2Geometry parses the CLI shared-L2 geometry syntax "SIZE[:BANKS]"
// — SIZE accepts a K or M suffix ("256K:4", "1M:8", "524288") — and
// returns the size in bytes and the bank count (0 when ":BANKS" was
// omitted). Both cmd/vptables and cmd/vpbench speak this syntax.
func ParseL2Geometry(s string) (sizeBytes, banks int, err error) {
	sizePart, bankPart, hasBanks := strings.Cut(s, ":")
	if hasBanks {
		banks, err = strconv.Atoi(bankPart)
		if err != nil || banks < 1 {
			return 0, 0, fmt.Errorf("vpr: bad L2 bank count %q", bankPart)
		}
	}
	mult := 1
	switch {
	case strings.HasSuffix(sizePart, "K"), strings.HasSuffix(sizePart, "k"):
		mult, sizePart = 1024, sizePart[:len(sizePart)-1]
	case strings.HasSuffix(sizePart, "M"), strings.HasSuffix(sizePart, "m"):
		mult, sizePart = 1024*1024, sizePart[:len(sizePart)-1]
	}
	n, err := strconv.Atoi(sizePart)
	if err != nil || n < 1 || n > math.MaxInt/mult {
		return 0, 0, fmt.Errorf("vpr: bad L2 size %q", s)
	}
	return n * mult, banks, nil
}

// CoherenceProtocol is one registered coherence protocol state machine —
// its declared transition table plus the decision hooks the memory
// hierarchy consults (see internal/mem and internal/mem/conftest, whose
// conformance harness checks every implementation against its table).
type CoherenceProtocol = mem.Protocol

// CoherenceProtocols lists the registered protocols, default (msi) first.
func CoherenceProtocols() []CoherenceProtocol { return mem.Protocols() }

// CoherenceProtocolByName resolves a -protocol selection ("msi", "mesi",
// "moesi"; "" = msi).
func CoherenceProtocolByName(name string) (CoherenceProtocol, error) {
	return mem.ProtocolByName(name)
}

// DirectoryKindInfo describes one registered directory sharer
// representation (-dir): "fullmap" is the exact bitmask capped at 64
// cores; "limited" keeps N exact pointers and degrades overflowing sets
// to broadcast, with no core cap.
type DirectoryKindInfo = mem.DirectoryKindInfo

// DirectoryKinds lists the registered representations, default first.
func DirectoryKinds() []DirectoryKindInfo { return mem.DirectoryKinds() }

// ParseDirectoryKind validates a -dir selection ("fullmap",
// "limited[:N]"; "" = fullmap) without building anything, and returns its
// canonical spelling ("fullmap" or "limited:N").
func ParseDirectoryKind(kind string) (string, error) { return mem.ParseDirectoryKind(kind) }

// MemStats are the memory-hierarchy counters a Memory port accumulates
// (pipeline.Stats carries the per-run view; this is the raw form the
// internal hierarchy reports).
type MemStats = mem.Stats

// DefaultConfig returns the paper's machine: 8-way out-of-order, 128-entry
// ROB, Table 1 functional units, 64 physical registers per file, 16 KB
// lockup-free L1 with 8 MSHRs, 2048-entry BHT, PA-8000-style speculative
// memory disambiguation.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// --- Engine -------------------------------------------------------------------

// EngineOption configures an Engine built by New.
type EngineOption = engine.Option

// WithParallelism caps the number of concurrently running simulations in a
// batch. n < 1 selects GOMAXPROCS.
func WithParallelism(n int) EngineOption { return engine.WithParallelism(n) }

// WithCache sizes the engine's deterministic result cache (entries,
// LRU-evicted). The cache is keyed by a canonical hash of
// workload/generator identity, machine configuration and instruction
// budget, so overlapping sweeps — e.g. the conventional baselines shared
// by figures 4, 5 and 7 — never re-simulate the same point. capacity <= 0
// disables caching.
func WithCache(capacity int) EngineOption { return engine.WithCache(capacity) }

// WithProgress installs a callback invoked once per completed point (cache
// hits included). The engine serializes the calls.
func WithProgress(fn func(format string, args ...any)) EngineOption {
	return engine.WithProgress(fn)
}

// WithRunHook installs a callback fired immediately before every
// single-core simulation that Engine.Run (and so Engine.RunBatch)
// actually performs; cache hits do not fire it, and neither do SMT or
// multi-core runs. Useful for metering and for asserting cache behaviour
// in tests.
func WithRunHook(fn func(spec RunSpec)) EngineOption { return engine.WithRunHook(fn) }

// WithProbe attaches a pipeline probe to every simulation the engine runs
// (a spec-level probe in Config.Policies.Probe takes precedence for its
// run). Probed runs never read the result cache — a cached result would
// skip the callbacks — but still populate it for unprobed repeats.
// Batches invoke the probe from several goroutines at once, so it must be
// safe for concurrent use.
func WithProbe(p Probe) EngineOption { return engine.WithProbe(p) }

// Engine executes simulation points and experiments with bounded
// parallelism and result caching. Construct with New; an Engine is safe
// for concurrent use.
type Engine struct {
	eng *engine.Engine
}

// New builds an Engine. Defaults: parallelism = GOMAXPROCS and a result
// cache of engine.DefaultCacheCapacity entries.
func New(opts ...EngineOption) *Engine {
	return &Engine{eng: engine.New(opts...)}
}

// Parallelism reports the worker-pool width batches run with.
func (e *Engine) Parallelism() int { return e.eng.Parallelism() }

// CacheStats reports lifetime result-cache hits and misses.
func (e *Engine) CacheStats() (hits, misses int64) { return e.eng.CacheStats() }

// Run simulates one point under ctx, consulting and populating the result
// cache.
func (e *Engine) Run(ctx context.Context, spec RunSpec) (Result, error) {
	return e.eng.Run(ctx, spec)
}

// RunBatch fans specs out over the worker pool and returns results in spec
// order. Results are identical at every parallelism level; the first
// error (or ctx cancellation — test with errors.Is, since a cancellation
// landing mid-simulation arrives wrapped) stops the batch. A spec whose
// run panics fails with a *PanicError.
func (e *Engine) RunBatch(ctx context.Context, specs []RunSpec) ([]Result, error) {
	return e.eng.RunBatch(ctx, specs)
}

// PanicError is a run that panicked, with the spec's label, the panic
// value and the stack. The engine recovers the panic, so one bad spec
// fails its own run and batch instead of the process.
type PanicError = engine.PanicError

// RunSMT simulates one multithreaded machine under ctx: one workload per
// hardware thread sharing the pipeline, cache and physical register files.
func (e *Engine) RunSMT(ctx context.Context, spec SMTSpec) (SMTResult, error) {
	return e.eng.RunSMT(ctx, spec)
}

// RunSMTBatch is RunBatch for multithreaded points.
func (e *Engine) RunSMTBatch(ctx context.Context, specs []SMTSpec) ([]SMTResult, error) {
	return e.eng.RunSMTBatch(ctx, specs)
}

// RunMulticore simulates one multi-core machine under ctx: one workload
// per core, private L1s over the banked shared L2, cores stepped in
// cycle-lockstep. Results cache under a key covering the per-core
// machine and the shared-L2 memory configuration.
func (e *Engine) RunMulticore(ctx context.Context, spec MulticoreSpec) (MulticoreResult, error) {
	return e.eng.RunMulticore(ctx, spec)
}

// RunMulticoreBatch shards independent multi-core specs across the
// worker pool (each machine's cores stay in lockstep on one worker) and
// returns results in spec order.
func (e *Engine) RunMulticoreBatch(ctx context.Context, specs []MulticoreSpec) ([]MulticoreResult, error) {
	return e.eng.RunMulticoreBatch(ctx, specs)
}

// RunExperiment builds the named experiment's spec list, executes it
// through the engine's worker pool and cache, and reduces the runs into
// the experiment's typed result plus its paper-shaped rendering. The
// available names are listed by Experiments.
func (e *Engine) RunExperiment(ctx context.Context, name string, opts ExperimentOptions) (ExperimentResult, error) {
	exp, ok := experiments.ByName(name)
	if !ok {
		return ExperimentResult{}, &UnknownExperimentError{Name: name}
	}
	v, err := exp.Run(ctx, e.eng, opts)
	if err != nil {
		return ExperimentResult{}, err
	}
	return ExperimentResult{Name: name, Value: v, Text: exp.Render(v)}, nil
}

// --- Stage policies and probes ------------------------------------------------

// Policies composes the pluggable per-stage behaviours of a Config: the
// SMT fetch policy, the issue-select heuristic and an optional probe. The
// zero value is the paper's §4.1 machine everywhere.
type Policies = pipeline.Policies

// FetchPolicy decides which hardware thread receives the front end's
// fetch bandwidth each cycle; FetchCandidate is what it chooses among.
type (
	FetchPolicy    = pipeline.FetchPolicy
	FetchCandidate = pipeline.FetchCandidate
)

// IssueSelect ranks a thread's ready instructions for the issue stage;
// IssueCandidate is one ready instruction.
type (
	IssueSelect    = pipeline.IssueSelect
	IssueCandidate = pipeline.IssueCandidate
)

// Probe observes kernel events (dispatch, issue, completion, commit,
// squash, allocation refusal, cycle boundaries) without allocating on the
// simulation hot path. Embed BaseProbe to implement only the events of
// interest.
type (
	Probe     = pipeline.Probe
	BaseProbe = pipeline.BaseProbe
)

// PolicyInfo describes one registered policy for listings and CLI help.
type PolicyInfo = pipeline.PolicyInfo

// The registered policy names, usable with FetchPolicyByName and
// IssueSelectByName (and the CLI -fetch/-issue flags).
const (
	FetchRoundRobin       = pipeline.FetchRoundRobin       // default: first fetchable thread in rotation order
	FetchICount           = pipeline.FetchICount           // Tullsen-style least-loaded-thread fetch gating
	IssueOldestFirst      = pipeline.IssueOldestFirst      // default: program order
	IssueLoadFirst        = pipeline.IssueLoadFirst        // ready loads before everything else
	IssueLongLatencyFirst = pipeline.IssueLongLatencyFirst // longest execution latency first
)

// FetchPolicies lists the registered fetch policies, default first.
func FetchPolicies() []PolicyInfo { return pipeline.FetchPolicies() }

// FetchPolicyByName returns the registered fetch policy.
func FetchPolicyByName(name string) (FetchPolicy, bool) { return pipeline.FetchPolicyByName(name) }

// IssueSelects lists the registered issue-select heuristics, default first.
func IssueSelects() []PolicyInfo { return pipeline.IssueSelects() }

// IssueSelectByName returns the registered issue-select heuristic.
func IssueSelectByName(name string) (IssueSelect, bool) { return pipeline.IssueSelectByName(name) }

// --- Experiment registry ------------------------------------------------------

// ExperimentOptions tune Engine.RunExperiment (instruction budget per
// run, workload subset, progress callback, ...).
type ExperimentOptions = experiments.Options

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	// Name keys the experiment for Engine.RunExperiment.
	Name string
	// Title is a one-line description for listings and CLI help.
	Title string
	// Reproduces names the paper artifact or repository study the
	// experiment regenerates.
	Reproduces string
}

// Experiments enumerates the registry in the paper's reporting order:
// every table and figure of the evaluation, the ablations, and the SMT
// future-work study. CLI help and documentation are generated from this
// list rather than hand-maintained.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.Registry() {
		out = append(out, ExperimentInfo{Name: e.Name, Title: e.Title, Reproduces: e.Reproduces})
	}
	return out
}

// ExperimentResult is a completed experiment: the typed result value
// (Table2, NRRSweep, []AblationRow, ...) and its rendering in the paper's
// row/series shape.
type ExperimentResult struct {
	Name  string
	Value any
	Text  string
}

// UnknownExperimentError reports an experiment name not in the registry.
type UnknownExperimentError struct{ Name string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "vpr: unknown experiment " + e.Name
}

// Experiment result types, re-exported for consumers of
// ExperimentResult.Value.
type (
	Table2      = experiments.Table2
	NRRSweep    = experiments.NRRSweep
	Fig6Row     = experiments.Fig6Row
	Fig7        = experiments.Fig7
	AblationRow = experiments.AblationRow
)

// SMTRow is one point of the simultaneous-multithreading scaling study.
type SMTRow = experiments.SMTRow

// LifetimeRow is one point of the register-holding-time study (§3.1 in
// vivo).
type LifetimeRow = experiments.LifetimeRow

// FetchPolicyRow is one point of the SMT fetch-policy study (ICOUNT vs
// round-robin on the §5 machine).
type FetchPolicyRow = experiments.FetchPolicyRow

// MulticoreRow is one point of the multi-core scaling study (cores ×
// register-pool scheme over the banked shared L2).
type MulticoreRow = experiments.MulticoreRow

// CoherenceRow is one point of the MSI coherence study (cores × scheme ×
// coherence on/off on the sharing-heavy synthetic workload, with a
// namespaced zero-invalidation control).
type CoherenceRow = experiments.CoherenceRow

// --- Workloads and traces -----------------------------------------------------

// Workload describes one catalog entry.
type Workload struct {
	Name        string
	Class       string // "int" or "fp"
	Description string
}

// Workloads lists the nine kernels in the paper's reporting order.
func Workloads() []Workload {
	var out []Workload
	for _, s := range workloads.Catalog() {
		out = append(out, Workload{Name: s.Name, Class: s.Class, Description: s.Description})
	}
	return out
}

// WorkloadGenerator returns a fresh emulator-backed trace generator for a
// catalog workload. Wrap it with TakeTrace to bound its length.
func WorkloadGenerator(name string) (trace.Generator, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, &UnknownWorkloadError{Name: name}
	}
	return w.NewGen()
}

// UnknownWorkloadError reports a workload name not in the catalog.
type UnknownWorkloadError struct{ Name string }

// Error implements error.
func (e *UnknownWorkloadError) Error() string {
	return "vpr: unknown workload " + e.Name
}

// Program is an assembled program for the mini-ISA.
type Program = isa.Program

// Assemble translates mini-ISA assembly text (see internal/asm for the
// syntax) into a Program that can drive the simulator via NewTrace.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// NewTrace functionally executes a program and returns the committed-path
// trace generator (with golden values) that drives the timing simulator.
func NewTrace(p *Program) (trace.Generator, error) {
	gen, err := emu.NewTraceGen(p)
	if err != nil {
		return nil, err
	}
	return gen, nil
}

// TraceGenerator produces committed-path trace records; the catalog,
// NewTrace and OpenTrace all yield one.
type TraceGenerator = trace.Generator

// TraceRecord is one committed instruction of a trace.
type TraceRecord = trace.Record

// TraceFunc adapts a function to a TraceGenerator.
type TraceFunc = trace.GenFunc

// TraceMix summarizes a trace's dynamic instruction mix.
type TraceMix = trace.Mix

// TakeTrace bounds a generator to n instructions.
func TakeTrace(gen trace.Generator, n int64) trace.Generator { return trace.Take(gen, n) }

// CollectTrace drains up to n records into a slice.
func CollectTrace(gen trace.Generator, n int64) []TraceRecord { return trace.Collect(gen, n) }

// DumpTrace writes up to n records of gen to w in the binary trace format
// and reports how many were written.
func DumpTrace(w io.Writer, gen trace.Generator, n int64) (int64, error) {
	return trace.Dump(w, gen, n)
}

// OpenTrace reads a binary trace previously written by DumpTrace.
func OpenTrace(r io.Reader) (trace.Generator, error) { return trace.NewReader(r) }

// MeasureTraceMix measures the dynamic instruction mix of up to n records.
func MeasureTraceMix(gen trace.Generator, n int64) TraceMix { return trace.MeasureMix(gen, n) }

// --- §3.1 analytic pressure model ---------------------------------------------

// AllocPoint is where a destination register is allocated (decode, issue,
// write-back).
type AllocPoint = sim.AllocPoint

// The three allocation points of the paper's §3.1 example.
const (
	AllocDecode    = sim.AllocDecode
	AllocIssue     = sim.AllocIssue
	AllocWriteback = sim.AllocWriteback
)

// ChainInterval is one instruction's register-holding interval.
type ChainInterval = sim.ChainInterval

// ChainPressure reproduces the paper's §3.1 register-pressure arithmetic
// for a serial dependence chain.
func ChainPressure(latencies []int, point AllocPoint) []ChainInterval {
	return sim.ChainPressure(latencies, point)
}

// TotalPressure sums register·cycles over the intervals.
func TotalPressure(ivs []ChainInterval) int { return sim.TotalPressure(ivs) }

// PaperExampleLatencies is the §3.1 chain (20-cycle load miss, fdiv 20,
// fmul 10, fadd 5).
func PaperExampleLatencies() []int { return sim.PaperExampleLatencies() }

// HarmonicMean is the paper's summary statistic for IPC.
func HarmonicMean(xs []float64) float64 { return metrics.HarmonicMean(xs) }

// ImprovementPct matches the paper's "imp (%)" columns.
func ImprovementPct(old, new float64) float64 { return metrics.ImprovementPct(old, new) }
