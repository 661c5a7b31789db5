package pipeline

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// machineInstr is each thread's trace length.
const machineInstr = 2000

// machineField indexes the input: byte i picks machineChoices[i]'s value
// at index byte % len (a missing byte picks index 0). After the fields
// come one raw seed byte per trace.
type machineField int

const (
	fFetchWidth machineField = iota
	fDecodeWidth
	fIssueWidth
	fCommitWidth
	fROB
	fIQ
	fSimpleInt
	fComplexInt
	fEffAddr
	fSimpleFP
	fFPMul
	fFPDiv
	fReadPorts
	fWritePorts
	fCachePorts
	fL1Size
	fL1Line
	fMSHRs
	fL1Miss
	fStoreBuffer
	fForwardLatency
	fRecoveryPenalty
	fBHT
	fDisamb
	fScheme
	fPhysRegs
	fNRRInt
	fNRRFP
	fVPRegsSlack // VPRegs = isa.NumLogical + ROBSize + slack
	fEarlyRelease
	fFetch
	fShape // 0 one core, 1 SMT, 2 multicore
	fCount // threads (SMT) or cores (multicore)
	fL2Size
	fL2Banks
	fL2Hit
	fL2Miss
	fL2Bus
	fSharedAddr
	fCoherence
	fProtocol        // index into machineProtocols
	fDirectory       // index into machineDirectories
	fStep            // index into machineSteps
	fTrace0          // fTrace0+i: thread i's trace, index into machineTraceKinds
	numMachineFields = fTrace0 + 4
)

// machineChoices lists each field's values, the paper's machine first.
// The lists reach past the bounds Validate enforces.
var machineChoices = [numMachineFields][]int{
	fFetchWidth:      {8, 1, 2, 4, 0},
	fDecodeWidth:     {8, 1, 2, 4, 0},
	fIssueWidth:      {8, 1, 2, 4, 0},
	fCommitWidth:     {8, 1, 2, 4, 0},
	fROB:             {128, 1, 2, 8, 32, 200, 0},
	fIQ:              {128, 1, 4, 16, 64, 0},
	fSimpleInt:       {3, 1, 2, 0},
	fComplexInt:      {2, 1, 3, 0},
	fEffAddr:         {3, 1, 2, 0},
	fSimpleFP:        {3, 1, 2, 0},
	fFPMul:           {2, 1, 3, 0},
	fFPDiv:           {2, 1, 0},
	fReadPorts:       {16, 2, 3, 4, 8, 1, 0},
	fWritePorts:      {8, 1, 2, 4, 0},
	fCachePorts:      {3, 1, 2, 0},
	fL1Size:          {16 << 10, 512, 4 << 10, 64 << 10, 24 << 10, 0},
	fL1Line:          {32, 16, 64, 128, 48, 0},
	fMSHRs:           {8, 1, 2, 16, 0},
	fL1Miss:          {50, 0, 150, 400},
	fStoreBuffer:     {16, 1, 2, 64, 0},
	fForwardLatency:  {2, 1, 4, 0},
	fRecoveryPenalty: {0, 1, 20, -7},
	fBHT:             {2048, 1, 64, 4096, 0, -5, 1000},
	fDisamb:          {int(DisambSpeculative), int(DisambConservative)},
	fScheme:          {int(core.SchemeConventional), int(core.SchemeVPWriteback), int(core.SchemeVPIssue), 3},
	fPhysRegs:        {64, 33, 40, 48, 96, 128, 160, 32},
	fNRRInt:          {32, 1, 4, 8, 16, 24, 40, 0},
	fNRRFP:           {32, 1, 4, 8, 16, 24, 40, 0},
	fVPRegsSlack:     {0, 16, -1},
	fEarlyRelease:    {0, 1},
	fFetch:           {int(FetchRoundRobin), int(FetchICount), 2, 255},
	fShape:           {0, 1, 2},
	fCount:           {2, 3, 4},
	fL2Size:          {256 << 10, 64 << 10, 96 << 10, 0},
	fL2Banks:         {4, 1, 2, 3, 8, 0},
	fL2Hit:           {20, 0, 5},
	fL2Miss:          {100, 20, 40, 10},
	fL2Bus:           {4, 0, 1},
	fSharedAddr:      {0, 1},
	fCoherence:       {0, 1},
	fProtocol:        {0, 1, 2, 3},
	fDirectory:       {0, 1, 2, 3, 4, 5},
	fStep:            {0, 1, 2, 3, 4, 5},
	fTrace0:          machineTraceKinds,
	fTrace0 + 1:      machineTraceKinds,
	fTrace0 + 2:      machineTraceKinds,
	fTrace0 + 3:      machineTraceKinds,
}

var (
	machineProtocols   = []string{"", "msi", "mesi", "moesi"}
	machineDirectories = []string{"", "fullmap", "limited", "limited:1", "limited:2", "limited:0"}
	machineSteps       = []StepMode{StepLockstep, StepParallel, StepSkew(1), StepSkew(8), StepSkew(64), StepSkew(-1)}
	machinePresets     = []string{"default", "fpstream", "sharing", "producer-consumer", "migratory", "false-sharing"}
	// machineTraceKinds: the catalog kernels, then the synth presets,
	// then one randSynthParams draw.
	machineTraceKinds = func() []int {
		n := len(workloads.Names()) + len(machinePresets) + 1
		kinds := make([]int, n)
		for i := range kinds {
			kinds[i] = i
		}
		return kinds
	}()
)

// machine is one decoded input.
type machine struct {
	cfg     Config
	threads int              // hardware threads of the one core (1 unless SMT)
	mc      *MulticoreConfig // nil unless the shape is multicore
	traces  []func() trace.Generator
}

func decodeMachine(t *testing.T, data []byte) machine {
	var v [numMachineFields]int
	for f := range v {
		var b byte
		if f < len(data) {
			b = data[f]
		}
		v[f] = machineChoices[f][int(b)%len(machineChoices[f])]
	}
	cfg := DefaultConfig()
	cfg.FetchWidth, cfg.DecodeWidth = v[fFetchWidth], v[fDecodeWidth]
	cfg.IssueWidth, cfg.CommitWidth = v[fIssueWidth], v[fCommitWidth]
	cfg.ROBSize, cfg.IQSize = v[fROB], v[fIQ]
	cfg.SimpleIntUnits, cfg.ComplexIntUnits, cfg.EffAddrUnits = v[fSimpleInt], v[fComplexInt], v[fEffAddr]
	cfg.SimpleFPUnits, cfg.FPMulUnits, cfg.FPDivUnits = v[fSimpleFP], v[fFPMul], v[fFPDiv]
	cfg.RFReadPorts, cfg.RFWritePorts, cfg.CachePorts = v[fReadPorts], v[fWritePorts], v[fCachePorts]
	cfg.Cache.SizeBytes, cfg.Cache.LineBytes, cfg.Cache.MSHRs = v[fL1Size], v[fL1Line], v[fMSHRs]
	cfg.Cache.MissPenalty = v[fL1Miss]
	cfg.StoreBufferSize, cfg.ForwardLatency = v[fStoreBuffer], v[fForwardLatency]
	cfg.RecoveryPenalty, cfg.BHTEntries = v[fRecoveryPenalty], v[fBHT]
	cfg.Disambiguation = Disambiguation(v[fDisamb])
	cfg.Scheme = core.Scheme(v[fScheme])
	cfg.Rename.PhysRegs = v[fPhysRegs]
	cfg.Rename.NRRInt, cfg.Rename.NRRFP = v[fNRRInt], v[fNRRFP]
	cfg.Rename.VPRegs = isa.NumLogical + cfg.ROBSize + v[fVPRegsSlack]
	cfg.Rename.EarlyRelease = v[fEarlyRelease] == 1
	cfg.Policies.Fetch = FetchPolicy(v[fFetch])
	cfg.Debug = true

	m := machine{cfg: cfg, threads: 1}
	switch v[fShape] {
	case 1:
		m.threads = v[fCount]
	case 2:
		m.mc = &MulticoreConfig{
			Cores:              v[fCount],
			Core:               cfg,
			SharedAddressSpace: v[fSharedAddr] == 1,
			Coherence:          v[fCoherence] == 1,
			Protocol:           machineProtocols[v[fProtocol]],
			Directory:          machineDirectories[v[fDirectory]],
			Step:               machineSteps[v[fStep]],
		}
		if size := v[fL2Size]; size > 0 {
			m.mc.L2 = mem.L2Config{SizeBytes: size, Banks: v[fL2Banks],
				HitPenalty: v[fL2Hit], MissPenalty: v[fL2Miss], BankBusCycles: v[fL2Bus]}
		}
	}
	n := m.threads
	if m.mc != nil {
		n = m.mc.Cores
	}
	kernels := workloads.Names()
	for i := 0; i < n; i++ {
		var seed byte
		if at := int(numMachineFields) + i; at < len(data) {
			seed = data[at]
		}
		switch kind := v[fTrace0+machineField(i)]; {
		case kind < len(kernels):
			mk := kernelGens(t, kernels[kind:kind+1], machineInstr)
			m.traces = append(m.traces, func() trace.Generator { return mk()[0] })
		default:
			var p synth.Params
			if k := kind - len(kernels); k < len(machinePresets) {
				p, _ = synth.ByName(machinePresets[k])
				p.Seed = int64(seed) + 1
			} else {
				p = randSynthParams(rand.New(rand.NewSource(int64(seed))))
			}
			m.traces = append(m.traces, func() trace.Generator { return trace.Take(synth.New(p), machineInstr) })
		}
	}
	return m
}

func (m machine) gens() []trace.Generator {
	gens := make([]trace.Generator, len(m.traces))
	for i, mk := range m.traces {
		gens[i] = mk()
	}
	return gens
}

// machineSeed encodes the paper's machine with the given field values.
func machineSeed(t testing.TB, set ...machineValue) []byte {
	data := make([]byte, numMachineFields+4)
	for _, fv := range set {
		i := slices.Index(machineChoices[fv.f], fv.v)
		if i < 0 {
			t.Fatalf("field %d has no choice %d", fv.f, fv.v)
		}
		data[fv.f] = byte(i)
	}
	return data
}

type machineValue struct {
	f machineField
	v int
}

// choice is the value of a field that indexes list.
func choice[T comparable](list []T, v T) int { return slices.Index(list, v) }

// traceKind is the fTrace value of a catalog kernel or a synth preset;
// any other name selects the randSynthParams draw.
func traceKind(name string) int {
	kernels := workloads.Names()
	if i := slices.Index(kernels, name); i >= 0 {
		return i
	}
	if i := slices.Index(machinePresets, name); i >= 0 {
		return len(kernels) + i
	}
	return len(kernels) + len(machinePresets)
}

// machineSeeds are the machines Validate once let through to a panic, a
// deadlock, a constructor error or a silent rewrite, plus accepted
// machines of every shape. Unset traces run the first catalog kernel.
var machineSeeds = [][]machineValue{
	{},
	{{fReadPorts, 1}},
	{{fScheme, int(core.SchemeVPWriteback)}, {fNRRInt, 40}},
	{{fScheme, int(core.SchemeVPIssue)}, {fNRRFP, 0}},
	{{fShape, 1}, {fCount, 2}, {fScheme, int(core.SchemeVPWriteback)}, {fPhysRegs, 96}},
	{{fShape, 2}, {fCount, 2}, {fL2Banks, 3}},
	{{fShape, 2}, {fCount, 2}, {fL2Miss, 10}},
	{{fRecoveryPenalty, -7}},
	{{fBHT, 0}},
	{{fBHT, -5}},
	{{fBHT, 1000}},
	{{fFetch, 2}},
	{{fShape, 1}, {fCount, 2}, {fScheme, int(core.SchemeVPWriteback)}, {fPhysRegs, 96},
		{fNRRInt, 16}, {fNRRFP, 16}, {fFetch, int(FetchICount)}, {fTrace0 + 1, traceKind("swim")}},
	{{fShape, 1}, {fCount, 3}, {fPhysRegs, 128}, {fROB, 32},
		{fTrace0, traceKind("hydro2d")}, {fTrace0 + 1, traceKind("default")}, {fTrace0 + 2, traceKind("random")}},
	{{fShape, 2}, {fCount, 2}, {fSharedAddr, 1}, {fCoherence, 1},
		{fProtocol, choice(machineProtocols, "mesi")}, {fDirectory, choice(machineDirectories, "limited:1")},
		{fStep, choice(machineSteps, StepSkew(8))},
		{fTrace0, traceKind("sharing")}, {fTrace0 + 1, traceKind("sharing")}},
	{{fShape, 2}, {fCount, 3}, {fSharedAddr, 1}, {fCoherence, 1}, {fScheme, int(core.SchemeVPIssue)},
		{fProtocol, choice(machineProtocols, "moesi")}, {fDirectory, choice(machineDirectories, "limited:2")},
		{fStep, choice(machineSteps, StepParallel)},
		{fTrace0, traceKind("migratory")}, {fTrace0 + 1, traceKind("migratory")}, {fTrace0 + 2, traceKind("false-sharing")}},
	{{fShape, 2}, {fCount, 2}, {fL2Size, 0}, {fStep, choice(machineSteps, StepSkew(-1))},
		{fL1Size, 512}, {fMSHRs, 1}},
	// Below the maximum NRR the shared pool's free-versus-reserve test
	// grants unprotected allocations as well as refusing them, which
	// Debug cross-checks against the renamer at every refusal.
	{{fScheme, int(core.SchemeVPIssue)}, {fNRRInt, 1}, {fNRRFP, 1}, {fTrace0, traceKind("swim")}},
	{{fShape, 1}, {fCount, 2}, {fScheme, int(core.SchemeVPWriteback)}, {fPhysRegs, 96},
		{fNRRInt, 8}, {fNRRFP, 8}, {fTrace0 + 1, traceKind("swim")}},
	// Misses completing beyond the completion wheel's 128-cycle horizon
	// wait a lap or more in their slot, which Debug checks every cycle.
	{{fScheme, int(core.SchemeVPWriteback)}, {fL1Miss, 400}, {fTrace0, traceKind("swim")}},
	{{fShape, 1}, {fCount, 2}, {fScheme, int(core.SchemeVPIssue)}, {fPhysRegs, 96},
		{fNRRInt, 16}, {fNRRFP, 16}, {fL1Miss, 150}, {fTrace0 + 1, traceKind("swim")}},
}

// FuzzMachine checks that Validate is the one gate of every machine the
// pipeline builds. Each input decodes into a Config, a shape (one core,
// SMT with 2–4 threads, or 2–4 cores over an optional shared L2) and one
// trace per thread. The gate must agree with construction: Validate (and,
// for SMT, the register budget of its thread count) for New and NewSMT,
// MulticoreConfig.Validate for NewMulticore. An accepted machine must run
// every instruction to commit under Debug, and a multicore run under a
// concurrent step mode must equal lockstep. After a one-core or SMT run
// the shared register pool must still partition between the threads.
func FuzzMachine(f *testing.F) {
	for _, set := range machineSeeds {
		f.Add(machineSeed(f, set...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeMachine(t, data)
		if m.mc != nil {
			checkMulticoreMachine(t, m)
			return
		}
		gate := m.cfg.Validate()
		if gate == nil {
			gate = m.cfg.checkRegBudget(m.threads)
		}
		var sim *Sim
		var err error
		if m.threads == 1 {
			sim, err = New(m.cfg, m.gens()[0])
		} else {
			sim, err = NewSMT(m.cfg, m.gens())
		}
		if (gate == nil) != (err == nil) {
			t.Fatalf("%d thread(s): gate says %v, construction says %v\nconfig %+v", m.threads, gate, err, m.cfg)
		}
		if err != nil {
			return
		}
		st, err := sim.Run(0)
		if err != nil {
			t.Fatalf("%d thread(s): %v\nconfig %+v", m.threads, err, m.cfg)
		}
		if want := int64(m.threads * machineInstr); !sim.Done() || st.Committed != want {
			t.Fatalf("%d thread(s): committed %d of %d (done %v)", m.threads, st.Committed, want, sim.Done())
		}
		// Debug checked the pool every cycle; this checks the drained end.
		if err := sim.PoolCheck(); err != nil {
			t.Fatalf("%d thread(s): register pool after the run: %v", m.threads, err)
		}
	})
}

// checkMulticoreMachine holds a multicore machine to the gate, runs it
// in lockstep to completion, and compares its concurrent step mode
// against lockstep.
func checkMulticoreMachine(t *testing.T, m machine) {
	cfg := *m.mc
	gate := cfg.Validate()
	_, err := NewMulticore(cfg, m.gens())
	if (gate == nil) != (err == nil) {
		t.Fatalf("%d cores: gate says %v, construction says %v\nconfig %+v", cfg.Cores, gate, err, cfg)
	}
	if err != nil {
		return
	}
	want := runMulticoreMode(t, cfg, StepLockstep, m.gens, 0)
	if n := int64(cfg.Cores * machineInstr); want.agg.Committed != n {
		t.Fatalf("%d cores: committed %d of %d", cfg.Cores, want.agg.Committed, n)
	}
	if cfg.Step == StepLockstep {
		return
	}
	got := runMulticoreMode(t, cfg, cfg.Step, m.gens, 0)
	if got.agg != want.agg {
		t.Errorf("step=%q aggregate stats diverge:\n got  %+v\n want %+v", cfg.Step, got.agg, want.agg)
	}
	for i := range want.perCore {
		if got.perCore[i] != want.perCore[i] {
			t.Errorf("step=%q core %d stats diverge:\n got  %+v\n want %+v", cfg.Step, i, got.perCore[i], want.perCore[i])
		}
	}
}
