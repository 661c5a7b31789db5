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
// 4, 5 and 7, never re-simulate the same point.
package engine

import (
	"context"
	"runtime"
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

func (e *Engine) progressf(format string, args ...any) {
	if e.progress == nil {
		return
	}
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	e.progress(format, args...)
}

// Run executes one point, consulting and populating the cache. Probed
// specs (an attached engine probe or Config.Policies.Probe) bypass the
// cache read so the probe always observes a real simulation.
func (e *Engine) Run(ctx context.Context, spec sim.Spec) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	if e.probe != nil && spec.Config.Policies.Probe == nil {
		spec.Config.Policies.Probe = e.probe
	}
	key, cacheable := specKey(spec)
	if cacheable && e.cache != nil && spec.Config.Policies.Probe == nil {
		if v, ok := e.cache.get(key); ok {
			e.progressf("engine: cached %s", runLabel(spec))
			return v.(sim.Result), nil
		}
	}
	if e.runHook != nil {
		e.runHook(spec)
	}
	res, err := sim.RunContext(ctx, spec)
	if err != nil {
		return res, err
	}
	if cacheable && e.cache != nil {
		e.cache.put(key, res)
	}
	e.progressf("engine: ran %s", runLabel(spec))
	return res, nil
}

// RunSMT executes one multithreaded point, consulting and populating the
// cache. The same probe handling as Run applies.
func (e *Engine) RunSMT(ctx context.Context, spec sim.SMTSpec) (sim.SMTResult, error) {
	if err := ctx.Err(); err != nil {
		return sim.SMTResult{}, err
	}
	if e.probe != nil && spec.Config.Policies.Probe == nil {
		spec.Config.Policies.Probe = e.probe
	}
	key := smtKey(spec)
	if e.cache != nil && spec.Config.Policies.Probe == nil {
		if v, ok := e.cache.get(key); ok {
			e.progressf("engine: cached smt %v", spec.Workloads)
			return copySMTResult(v.(sim.SMTResult)), nil
		}
	}
	res, err := sim.RunSMTContext(ctx, spec)
	if err != nil {
		return res, err
	}
	if e.cache != nil {
		e.cache.put(key, copySMTResult(res))
	}
	e.progressf("engine: ran smt %v", spec.Workloads)
	return res, nil
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
	if err := ctx.Err(); err != nil {
		return sim.MulticoreResult{}, err
	}
	if e.probe != nil && spec.Config.Policies.Probe == nil {
		spec.Config.Policies.Probe = e.probe
	}
	key := multicoreKey(spec)
	if e.cache != nil && spec.Config.Policies.Probe == nil {
		if v, ok := e.cache.get(key); ok {
			e.progressf("engine: cached multicore %v", spec.Workloads)
			return copyMulticoreResult(v.(sim.MulticoreResult)), nil
		}
	}
	res, err := sim.RunMulticoreContext(ctx, spec)
	if err != nil {
		return res, err
	}
	if e.cache != nil {
		e.cache.put(key, copyMulticoreResult(res))
	}
	e.progressf("engine: ran multicore %v", spec.Workloads)
	return res, nil
}

// copyMulticoreResult deep-copies the per-core slice so cached entries
// never share a backing array with what callers receive.
func copyMulticoreResult(r sim.MulticoreResult) sim.MulticoreResult {
	r.PerCore = append([]pipeline.Stats(nil), r.PerCore...)
	return r
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
