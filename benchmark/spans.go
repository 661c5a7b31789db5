package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch; parent is the id of the span that caused it (0 for
// none), sample the sample it belongs to, and tid the goroutine track it
// ran on (0 for the driving goroutine).
type span struct {
	layer, name string
	start, end  int64
	id, parent  int32
	sample, tid int32
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps the spans of one goroutine in memory. A nil *recorder is
// the untraced mode: begin and end return at once, and nothing reads the
// clock on its behalf.
//
// The driving goroutine owns the root recorder. Each goroutine that runs
// layer code concurrently with it — a parallel-stepper core, a sweep
// worker — records into its own fork, created on the driving goroutine
// before the concurrent region starts. A fork's outermost spans hang under
// the root's innermost open span, which the root does not change until
// the concurrent region has ended. finish merges the forks.
type recorder struct {
	epoch  time.Time
	ids    *atomic.Int32 // span ids, shared by the root and its forks
	root   *recorder     // nil on the root
	forks  []*recorder
	spans  []span
	cur    int32 // innermost open span
	sample int32
	tid    int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), ids: new(atomic.Int32)} }

// fork returns a recorder for a goroutine on track tid.
func (r *recorder) fork(tid int32) *recorder {
	if r == nil {
		return nil
	}
	f := &recorder{epoch: r.epoch, ids: r.ids, root: r, tid: tid}
	r.forks = append(r.forks, f)
	return f
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(layer, name string) int {
	if r == nil {
		return -1
	}
	parent, sample := r.cur, r.sample
	if r.root != nil {
		sample = r.root.sample
		if parent == 0 {
			parent = r.root.cur
		}
	}
	id := r.ids.Add(1)
	r.spans = append(r.spans, span{layer: layer, name: name, start: r.now(), id: id, parent: parent, sample: sample, tid: r.tid})
	r.cur = id
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = r.now()
	r.cur = r.spans[i].parent
	if r.root != nil && r.cur == r.root.cur {
		r.cur = 0
	}
}

// finish merges the forks' spans into the root's and returns every span
// ordered by start time.
func (r *recorder) finish() []span {
	for _, f := range r.forks {
		r.spans = append(r.spans, f.spans...)
	}
	r.forks = nil
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].start < r.spans[j].start })
	return r.spans
}

// wrap returns gen unchanged when untraced; traced, it returns a wrapper
// that records each batch refill as a span of the layer. The wrapper must
// only be read from the goroutine that owns r.
func (r *recorder) wrap(gen trace.Generator, layer string) trace.Generator {
	if r == nil {
		return gen
	}
	g := &tracedGen{rec: r, layer: layer, name: layer + ".NextBatch", gen: gen}
	g.batch, _ = gen.(trace.BatchGenerator)
	return g
}

// wrapLazy is wrap for a generator that is only built on its first refill,
// so an engine cache hit that never reads the trace never pays for it. The
// construction is recorded as a newName span of the layer.
func (r *recorder) wrapLazy(open func() (trace.Generator, error), layer, newName string) *tracedGen {
	return &tracedGen{rec: r, layer: layer, name: layer + ".NextBatch", open: open, openName: newName}
}

// tracedGen records every NextBatch as a span. It keeps the batch fast
// path, so the pipeline's Stream refills exactly as it does untraced; a
// generator without one (synth) is drained through Next, which is what
// the Stream's own fallback does.
type tracedGen struct {
	rec         *recorder
	layer, name string
	gen         trace.Generator
	batch       trace.BatchGenerator

	open     func() (trace.Generator, error)
	openName string
	openErr  error
}

// opened reports whether the generator has been built (always, unless
// it came from wrapLazy and has not been read yet).
func (g *tracedGen) opened() bool { return g.open == nil }

func (g *tracedGen) Next() (trace.Record, bool) {
	var one [1]trace.Record
	if g.NextBatch(one[:]) == 0 {
		return trace.Record{}, false
	}
	return one[0], true
}

func (g *tracedGen) NextBatch(dst []trace.Record) int {
	if g.open != nil {
		sp := g.rec.begin(g.layer, g.openName)
		g.gen, g.openErr = g.open()
		g.rec.end(sp)
		g.open = nil
		if g.openErr == nil {
			g.batch, _ = g.gen.(trace.BatchGenerator)
		}
	}
	if g.openErr != nil {
		return 0
	}
	sp := g.rec.begin(g.layer, g.name)
	n := 0
	if g.batch != nil {
		n = g.batch.NextBatch(dst)
	} else {
		for n < len(dst) {
			r, ok := g.gen.Next()
			if !ok {
				break
			}
			dst[n] = r
			n++
		}
	}
	g.rec.end(sp)
	return n
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children on different tracks may overlap, so their
// intervals are merged before they are subtracted.
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		lo, hi := int64(-1), int64(-1)
		for _, c := range cs {
			a, b := max(c.start, s.start), min(c.end, s.end)
			if a >= b {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		self[s.id] = s.dur() - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev, "Open trace file") and chrome://tracing load
// offline. Each span is a complete ("X") event; its layer is the event
// category, and its id, parent and sample are in args.
func writeChromeTrace(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "vpbench " + workload}}}
	tracks := map[int32]bool{}
	for _, s := range spans {
		if !tracks[s.tid] {
			tracks[s.tid] = true
			name := "main"
			if s.tid > 0 {
				name = fmt.Sprintf("worker %d", s.tid)
			}
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: s.tid, Args: map[string]any{"name": name}})
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", PID: 1, TID: s.tid,
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "sample": s.sample},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
