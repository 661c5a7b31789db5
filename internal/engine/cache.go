package engine

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// cacheKey identifies one simulation point. Two specs with equal keys are
// guaranteed (workload runs) or asserted by the caller (GenID runs) to
// produce identical results, so a cached result can stand in for a run.
type cacheKey [sha256.Size]byte

// specKey canonically hashes a spec's workload/generator identity, machine
// configuration (scheme, renaming parameters, cache geometry, ... — every
// field of pipeline.Config is a value type, so %#v is a canonical
// rendering; the Policies field renders as its fetch policy's *name* via
// pipeline.Policies.GoString, so ICOUNT and round-robin key distinctly,
// and probes — pure observers — never perturb the key) and instruction
// budget.
// Specs driven by an anonymous custom generator have no stable identity
// and are reported as not cacheable.
//
//vpr:keyfunc sim.Spec
func specKey(spec sim.Spec) (cacheKey, bool) {
	if spec.Gen != nil && spec.GenID == "" {
		return cacheKey{}, false
	}
	id := spec.Workload
	if spec.Gen != nil {
		id = "gen:" + spec.GenID
	}
	return sha256.Sum256([]byte(fmt.Sprintf("run|%s|%d|%#v", id, spec.MaxInstr, spec.Config))), true
}

// smtKey is specKey for multithreaded runs; SMT specs always name catalog
// workloads, so they are always cacheable.
//
//vpr:keyfunc sim.SMTSpec
func smtKey(spec sim.SMTSpec) cacheKey {
	return sha256.Sum256([]byte(fmt.Sprintf("smt|%q|%d|%#v", spec.Workloads, spec.MaxInstrPerThread, spec.Config)))
}

// multicoreKey is specKey for multi-core runs: the hash covers the
// per-core machine configuration, the memory configuration (shared-L2
// geometry, the address-space mode, the coherence switch and the
// protocol/directory selections) and the stepping plan, so two specs
// differing only in the memory hierarchy — or in which stepper produced
// the throughput numbers — never share a cache entry. The plan is keyed
// by its canonical spelling, so "" and "lockstep", or "skew:0" and
// "parallel", are one entry. So are the protocol and directory of a
// coherent spec: "" and "msi", "limited" and "limited:4" each name one
// machine. Without Coherence both key as written, since naming either
// there fails validation; so does any invalid spelling.
//
//vpr:keyfunc sim.MulticoreSpec
func multicoreKey(spec sim.MulticoreSpec) cacheKey {
	step := spec.Step
	if canon, err := pipeline.ParseStepMode(string(step)); err == nil {
		step = canon
	}
	proto, dir := spec.Protocol, spec.Directory
	if spec.Coherence {
		if p, err := mem.ProtocolByName(proto); err == nil {
			proto = p.Name()
		}
		if canon, err := mem.ParseDirectoryKind(dir); err == nil {
			dir = canon
		}
	}
	return sha256.Sum256([]byte(fmt.Sprintf("mc|%q|%d|%#v|%#v|%v|%v|%q|%q|%q",
		spec.Workloads, spec.MaxInstrPerCore, spec.Config, spec.L2,
		spec.SharedAddressSpace, spec.Coherence, proto, dir, string(step))))
}

// resultCache is a concurrency-safe LRU over completed runs. Values are
// sim.Result or sim.SMTResult depending on the key namespace.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[cacheKey]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key   cacheKey
	value any
}

// newResultCache sizes nothing up front: capacity is only the eviction
// bound, and the map grows with the points actually cached, so a short-lived
// engine does not pay for (or keep alive) room for every point it might see.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[cacheKey]*list.Element),
	}
}

func (c *resultCache) get(key cacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

func (c *resultCache) put(key cacheKey, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, value: value})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// stats reports lifetime hit/miss counters.
func (c *resultCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
