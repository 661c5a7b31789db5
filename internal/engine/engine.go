// Package engine turns the single-point simulator in internal/sim into a
// service: an Engine owns a worker pool and a deterministic result cache
// and exposes context-aware single, batch, SMT-batch and multicore-batch
// entry points.
//
// Batches fan their specs out over the pool and collect results in spec
// order, so a batch's output is byte-for-byte independent of the
// parallelism level — the simulator itself is deterministic, and ordering
// is the only thing concurrency could perturb. (Multi-core machines are
// sharded across the pool as whole machines; the cores of one machine
// stay in lockstep on one worker.) The cache is keyed by a canonical
// hash of workload/generator identity, machine configuration and
// instruction budget (see specKey) — for multi-core specs also the
// shared-L2 geometry, address-space mode and coherence switch — so
// overlapping sweeps, e.g. the conventional baseline shared by figures
// 4, 5 and 7, never re-simulate the same point. Every run, single or
// batched, goes through one cached-run path (cachedRun), which also
// recovers a panicking run into a *PanicError, so one bad spec fails its
// batch instead of the process.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

// DefaultCacheCapacity bounds the default result cache. Entries are a few
// hundred bytes of statistics each; 4096 comfortably covers every point of
// every registered experiment at several instruction budgets.
const DefaultCacheCapacity = 4096

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism caps the number of concurrently running simulations in a
// batch. n < 1 selects GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithCache sizes the deterministic result cache (entries, LRU-evicted).
// capacity <= 0 disables caching entirely.
func WithCache(capacity int) Option {
	return func(e *Engine) { e.cacheCapacity = capacity }
}

// WithProgress installs a callback invoked once per completed batch point
// (cache hits included). It may be called from multiple goroutines; the
// Engine serializes the calls.
func WithProgress(fn func(format string, args ...any)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithRunHook installs a callback invoked immediately before every
// single-core simulation Run (and so RunBatch) actually performs — cache
// hits do not fire it, and neither do SMT or multi-core runs — which
// makes cache behaviour observable (count the calls) and supports
// external metering. It may be called from multiple goroutines.
func WithRunHook(fn func(spec sim.Spec)) Option {
	return func(e *Engine) { e.runHook = fn }
}

// WithProbe attaches a pipeline probe to every simulation the engine runs;
// a spec-level probe (Config.Policies.Probe) takes precedence for its run.
// Probed runs never read the result cache — a cached result would skip the
// callbacks — but still populate it for unprobed repeats. Batches invoke
// the probe from several goroutines at once, so it must be safe for
// concurrent use.
func WithProbe(p pipeline.Probe) Option {
	return func(e *Engine) { e.probe = p }
}

// Engine executes simulation points with bounded parallelism and result
// caching. The zero value is not ready; use New. An Engine is safe for
// concurrent use.
type Engine struct {
	parallelism   int
	cacheCapacity int
	cache         *resultCache
	runHook       func(sim.Spec)
	probe         pipeline.Probe

	progressMu sync.Mutex
	progress   func(format string, args ...any)
}

// New builds an Engine. Defaults: parallelism = GOMAXPROCS, cache of
// DefaultCacheCapacity entries, no progress output.
func New(opts ...Option) *Engine {
	e := &Engine{parallelism: 0, cacheCapacity: DefaultCacheCapacity}
	for _, opt := range opts {
		opt(e)
	}
	if e.parallelism < 1 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	if e.cacheCapacity > 0 {
		e.cache = newResultCache(e.cacheCapacity)
	}
	return e
}

// Parallelism reports the worker-pool width batches run with.
func (e *Engine) Parallelism() int { return e.parallelism }

// CacheStats reports lifetime cache hits and misses (zeros when caching is
// disabled).
func (e *Engine) CacheStats() (hits, misses int64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// report prints one progress line for a finished spec; label is only
// evaluated when a progress callback is installed.
func (e *Engine) report(outcome string, label func() string) {
	if e.progress == nil {
		return
	}
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	e.progress("engine: %s %s", outcome, label())
}

// Run executes one point, consulting and populating the cache. Probed
// specs (an attached engine probe or Config.Policies.Probe) bypass the
// cache read so the probe always observes a real simulation.
func (e *Engine) Run(ctx context.Context, spec sim.Spec) (sim.Result, error) {
	key, cacheable := specKey(spec)
	return cachedRun(ctx, e, &spec.Config, key, cacheable, func() string { return runLabel(spec) }, nil,
		func(ctx context.Context) (sim.Result, error) {
			if e.runHook != nil {
				e.runHook(spec)
			}
			return sim.RunContext(ctx, spec)
		})
}

// RunSMT executes one multithreaded point, consulting and populating the
// cache. The same probe handling as Run applies.
func (e *Engine) RunSMT(ctx context.Context, spec sim.SMTSpec) (sim.SMTResult, error) {
	return cachedRun(ctx, e, &spec.Config, smtKey(spec), true,
		func() string { return fmt.Sprintf("smt %v", spec.Workloads) }, copySMTResult,
		func(ctx context.Context) (sim.SMTResult, error) { return sim.RunSMTContext(ctx, spec) })
}

// copySMTResult deep-copies the result's slice so cached entries never
// share a backing array with what callers receive (sim.Result needs no
// equivalent: pipeline.Stats is all scalars).
func copySMTResult(r sim.SMTResult) sim.SMTResult {
	r.PerThreadCommitted = append([]int64(nil), r.PerThreadCommitted...)
	return r
}

// RunMulticore executes one multi-core point, consulting and populating
// the cache; the key covers the per-core machine and the shared-L2
// memory configuration. The same probe handling as Run applies (the
// probe reaches every core).
func (e *Engine) RunMulticore(ctx context.Context, spec sim.MulticoreSpec) (sim.MulticoreResult, error) {
	return cachedRun(ctx, e, &spec.Config, multicoreKey(spec), true,
		func() string { return fmt.Sprintf("multicore %v", spec.Workloads) }, copyMulticoreResult,
		func(ctx context.Context) (sim.MulticoreResult, error) { return sim.RunMulticoreContext(ctx, spec) })
}

// copyMulticoreResult deep-copies the per-core slices so cached entries
// never share a backing array with what callers receive.
func copyMulticoreResult(r sim.MulticoreResult) sim.MulticoreResult {
	r.PerCore = append([]pipeline.Stats(nil), r.PerCore...)
	r.BHTAccuracy = append([]float64(nil), r.BHTAccuracy...)
	return r
}

// PanicError is a run that panicked. The engine recovers the panic, so a
// bad spec fails its own run, and its batch, instead of the process.
type PanicError struct {
	Label string // the spec's progress label: workload, "smt [...]" or "multicore [...]"
	Value any    // the value the run panicked with
	Stack []byte // the panicking goroutine's stack
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: %s panicked: %v", p.Label, p.Value)
}

// cachedRun is the one path behind Run, RunSMT and RunMulticore. It checks
// ctx, attaches the engine probe to cfg (the spec's own Config) unless the
// spec carries one, serves an unprobed cacheable spec from the cache,
// runs the simulation with a panic recovered into a *PanicError, caches
// the result and reports progress. label names the spec; clone (nil when
// results share no memory) copies a result on its way into and out of
// the cache.
func cachedRun[R any](ctx context.Context, e *Engine, cfg *pipeline.Config, key cacheKey, cacheable bool,
	label func() string, clone func(R) R, run func(context.Context) (R, error)) (R, error) {
	if err := ctx.Err(); err != nil {
		var zero R
		return zero, err
	}
	if e.probe != nil && cfg.Policies.Probe == nil {
		cfg.Policies.Probe = e.probe
	}
	if clone == nil {
		clone = func(r R) R { return r }
	}
	cacheable = cacheable && e.cache != nil
	if cacheable && cfg.Policies.Probe == nil {
		if v, ok := e.cache.get(key); ok {
			e.report("cached", label)
			return clone(v.(R)), nil
		}
	}
	res, err := func() (res R, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Label: label(), Value: v, Stack: debug.Stack()}
			}
		}()
		return run(ctx)
	}()
	if err != nil {
		return res, err
	}
	if cacheable {
		e.cache.put(key, clone(res))
	}
	e.report("ran", label)
	return res, nil
}

// RunBatch fans specs out over the worker pool and returns results in spec
// order. The first error cancels the remaining work and is returned; if
// ctx is cancelled, the returned error satisfies errors.Is(err,
// ctx.Err()) (a cancellation that lands mid-simulation arrives wrapped
// with the workload name). Results are identical at every parallelism
// level.
func (e *Engine) RunBatch(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	return batch(ctx, e.parallelism, specs, e.Run)
}

// RunSMTBatch is RunBatch for multithreaded points.
func (e *Engine) RunSMTBatch(ctx context.Context, specs []sim.SMTSpec) ([]sim.SMTResult, error) {
	return batch(ctx, e.parallelism, specs, e.RunSMT)
}

// RunMulticoreBatch is RunBatch for multi-core points. The sharding is
// across machines: each machine's cores are stepped by one worker's
// RunMulticore call.
func (e *Engine) RunMulticoreBatch(ctx context.Context, specs []sim.MulticoreSpec) ([]sim.MulticoreResult, error) {
	return batch(ctx, e.parallelism, specs, e.RunMulticore)
}

// batch runs run(ctx, specs[i]) for every spec on at most workers
// goroutines and returns the results in spec order, cancelling the batch
// on the first error and returning it.
func batch[S, R any](ctx context.Context, workers int, specs []S, run func(context.Context, S) (R, error)) ([]R, error) {
	n := len(specs)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if workers > n {
		workers = n
	}
	results := make([]R, n)
	indexes := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indexes {
				if ctx.Err() != nil {
					fail(ctx.Err())
					return
				}
				res, err := run(ctx, specs[i])
				if err != nil {
					fail(err)
					return
				}
				results[i] = res
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case indexes <- i:
		case <-ctx.Done():
			i = n // stop feeding; workers drain via ctx
		}
	}
	close(indexes)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

func runLabel(spec sim.Spec) string {
	if spec.Workload != "" {
		return spec.Workload
	}
	if spec.GenID != "" {
		return "gen:" + spec.GenID
	}
	return "custom"
}
