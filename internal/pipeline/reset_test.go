package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// diffState walks a and b, two values of one type, through every field,
// exported or not, and returns the path of the first difference ("" when
// there is none). A nil and an empty slice compare equal: a reset keeps
// capacity that new storage lacks. Functions compare by nil-ness only,
// and seen stops the walk at a pair of pointers it has already entered.
func diffState(a, b reflect.Value, path string, seen map[[2]uintptr]bool) string {
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q != %q", path, a.String(), b.String())
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := diffState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffState(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, seen); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil and non-nil pointers"
			}
			return ""
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return ""
		}
		seen[key] = true
		return diffState(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil and non-nil interfaces"
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: %v != %v", path, a.Elem().Type(), b.Elem().Type())
		}
		return diffState(a.Elem(), b.Elem(), path, seen)
	case reflect.Func, reflect.Map, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			return path + ": nil and non-nil"
		}
		if a.Kind() == reflect.Map && a.Len() != b.Len() {
			return fmt.Sprintf("%s: map len %d != %d", path, a.Len(), b.Len())
		}
	default:
		panic(fmt.Sprintf("diffState: %s: unhandled kind %v", path, a.Kind()))
	}
	return ""
}

// resetDiff returns where two machines differ, "" when they are equal.
func resetDiff(got, want *Sim) string {
	return diffState(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem(), "Sim", map[[2]uintptr]bool{})
}

// inFlight reports whether a stopped machine still has instructions in
// its reorder buffer, a completion on the wheel and a busy MSHR: the
// state a reset must clear beyond a drained machine's.
func inFlight(s *Sim) bool {
	pending := false
	for _, n := range s.compWheel.n {
		pending = pending || n > 0
	}
	busy := false
	mshrs := reflect.ValueOf(s.dmem).Elem().FieldByName("mshrs")
	for i := 0; i < mshrs.Len(); i++ {
		busy = busy || mshrs.Index(i).FieldByName("busy").Bool()
	}
	return s.threads[0].robCount > 0 && pending && busy
}

// TestResetEqualsNew pins Reset's contract: a machine reset for a
// configuration equals, field for field, the machine New builds for it
// over an identically built generator, whatever run it finished and
// whichever of its buffers the new configuration shrinks or grows; and
// the two then run alike.
func TestResetEqualsNew(t *testing.T) {
	swim := collectKernel(t, "swim", 5000)
	p, ok := synth.ByName("sharing")
	if !ok {
		t.Fatal("sharing preset missing")
	}
	sharing := trace.Collect(synth.New(p), 5000)

	// The runs a machine finishes before its reset.
	runs := []struct {
		name string
		edit func(*Config)
		recs []trace.Record
		cap  int64 // commit cap; 0 runs the trace to its end
		// check inspects the stopped machine, so each run shows the
		// state it is there for.
		check func(*Sim, Stats) error
	}{
		{"complete", nil, swim, 0, func(s *Sim, st Stats) error {
			if !s.Done() {
				return fmt.Errorf("the run did not drain")
			}
			return nil
		}},
		{"commit cap", nil, swim, 3000, func(s *Sim, st Stats) error {
			if !inFlight(s) {
				return fmt.Errorf("stopped with nothing in flight, on the wheel or in the MSHRs")
			}
			return nil
		}},
		{"squashes", func(c *Config) { c.Disambiguation = DisambSpeculative }, sharing, 0, func(s *Sim, st Stats) error {
			if st.MemViolations == 0 {
				return fmt.Errorf("no memory-order squash")
			}
			return nil
		}},
		{"debug", func(c *Config) { c.Debug = true }, swim, 0, nil},
	}
	resize := func(regs, nrr int) func(*Config) {
		return func(c *Config) {
			c.Rename.PhysRegs = regs
			c.Rename.NRRInt, c.Rename.NRRFP = nrr, nrr
		}
	}
	rob := func(n int) func(*Config) {
		return func(c *Config) {
			c.ROBSize = n
			c.Rename.VPRegs = 32 + n
		}
	}
	targets := []struct {
		name    string
		edit    func(*Config)
		schemes []core.Scheme // nil: all three
	}{
		{"default", nil, nil},
		{"48 registers", resize(48, 16), nil},
		{"96 registers", resize(96, 32), nil},
		{"NRR 1", resize(64, 1), []core.Scheme{core.SchemeVPWriteback, core.SchemeVPIssue}},
		{"early release", func(c *Config) { c.Rename.EarlyRelease = true }, []core.Scheme{core.SchemeConventional}},
		{"miss penalty 20", func(c *Config) { c.Cache.MissPenalty = 20 }, nil},
		{"rob 64", rob(64), nil},
		{"rob 256", rob(256), nil},
	}
	config := func(scheme core.Scheme, edit func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		for _, run := range runs {
			for _, target := range targets {
				if target.schemes != nil && !containsScheme(target.schemes, scheme) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", scheme, run.name, target.name), func(t *testing.T) {
					used, err := New(config(scheme, run.edit), trace.FromSlice(run.recs))
					if err != nil {
						t.Fatal(err)
					}
					st, err := used.Run(run.cap)
					if err != nil {
						t.Fatal(err)
					}
					if run.check != nil {
						if err := run.check(used, st); err != nil {
							t.Fatalf("before the reset: %v", err)
						}
					}
					cfg := config(scheme, target.edit)
					if err := used.Reset(cfg, trace.Take(trace.FromSlice(swim), 2000)); err != nil {
						t.Fatal(err)
					}
					want, err := New(cfg, trace.Take(trace.FromSlice(swim), 2000))
					if err != nil {
						t.Fatal(err)
					}
					if d := resetDiff(used, want); d != "" {
						t.Fatalf("the reset machine differs from New's: %s", d)
					}
					got, err := used.Run(0)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := want.Run(0)
					if err != nil {
						t.Fatal(err)
					}
					if got.Arch() != ref.Arch() || used.BHT().Accuracy() != want.BHT().Accuracy() {
						t.Errorf("the reset machine ran differently:\n got %+v\nwant %+v", got.Arch(), ref.Arch())
					}
				})
			}
		}
	}
}

func containsScheme(schemes []core.Scheme, s core.Scheme) bool {
	for _, x := range schemes {
		if x == s {
			return true
		}
	}
	return false
}

// TestResetRejectsSharedMachines: only a one-thread machine with a
// private L1 can be reset; an SMT machine or a core over a shared L2
// returns an error and is left as it was.
func TestResetRejectsSharedMachines(t *testing.T) {
	recs := collectKernel(t, "compress", 100)
	smt, err := NewSMT(smtConfig(core.SchemeConventional, 2), []trace.Generator{trace.FromSlice(recs), trace.FromSlice(recs)})
	if err != nil {
		t.Fatal(err)
	}
	if err := smt.Reset(DefaultConfig(), trace.FromSlice(recs)); err == nil {
		t.Error("an SMT machine was reset")
	}
	mc, err := NewMulticore(MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config()},
		[]trace.Generator{trace.FromSlice(recs), trace.FromSlice(recs)})
	if err != nil {
		t.Fatal(err)
	}
	port := mc.Core(0)
	if err := port.Reset(DefaultConfig(), trace.FromSlice(recs)); err == nil {
		t.Error("a core over a shared L2 was reset")
	}
	if port.dmem != mc.sys.Port(0) {
		t.Error("the failed reset replaced the core's port")
	}
}
