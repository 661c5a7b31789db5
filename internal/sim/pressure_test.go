package sim

import (
	"context"
	"testing"
)

// The §3.1 worked example, verified number by number against the paper.
func TestPaperPressureExample(t *testing.T) {
	lat := PaperExampleLatencies()

	decode := ChainPressure(lat, AllocDecode)
	wantDecode := []int{42, 52, 57}
	for i, w := range wantDecode {
		if got := decode[i].Cycles(); got != w {
			t.Errorf("decode alloc p%d held %d cycles, want %d", i+1, got, w)
		}
	}
	if total := TotalPressure(decode); total != 151 {
		t.Errorf("decode total = %d, want 151", total)
	}

	wb := ChainPressure(lat, AllocWriteback)
	wantWB := []int{21, 11, 6}
	for i, w := range wantWB {
		if got := wb[i].Cycles(); got != w {
			t.Errorf("write-back alloc p%d held %d cycles, want %d", i+1, got, w)
		}
	}
	if total := TotalPressure(wb); total != 38 {
		t.Errorf("write-back total = %d, want 38", total)
	}
	// "the register pressure would be reduced by 75% (from 151 to 38)"
	if red := 1 - float64(38)/151; red < 0.74 || red > 0.76 {
		t.Errorf("write-back reduction = %.2f, want ≈ 0.75", red)
	}

	issue := ChainPressure(lat, AllocIssue)
	wantIssue := []int{41, 31, 16}
	for i, w := range wantIssue {
		if got := issue[i].Cycles(); got != w {
			t.Errorf("issue alloc p%d held %d cycles, want %d", i+1, got, w)
		}
	}
	if total := TotalPressure(issue); total != 88 {
		t.Errorf("issue total = %d, want 88", total)
	}
	// "which still implies a reduction of 42%"
	if red := 1 - float64(88)/151; red < 0.41 || red > 0.43 {
		t.Errorf("issue reduction = %.2f, want ≈ 0.42", red)
	}
}

func TestChainPressureDegenerate(t *testing.T) {
	if ChainPressure([]int{5}, AllocDecode) != nil {
		t.Error("single-instruction chains have no measurable interval")
	}
	if ChainPressure(nil, AllocIssue) != nil {
		t.Error("empty chains have no intervals")
	}
}

func TestAllocPointStrings(t *testing.T) {
	if AllocDecode.String() != "decode" || AllocIssue.String() != "issue" || AllocWriteback.String() != "write-back" {
		t.Error("allocation point names are part of example output")
	}
}

func TestRunByWorkloadName(t *testing.T) {
	spec := Spec{Workload: "compress", MaxInstr: 3000}
	cfg := defaultTestConfig()
	spec.Config = cfg
	res, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Committed != 3000 {
		t.Errorf("committed = %d, want 3000", res.Stats.Committed)
	}
	if res.Stats.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
	if res.BHTAccuracy <= 0 || res.BHTAccuracy > 1 {
		t.Errorf("BHT accuracy = %v", res.BHTAccuracy)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := RunContext(context.Background(), Spec{Workload: "nonesuch", Config: defaultTestConfig()}); err == nil {
		t.Error("unknown workload must error")
	}
}
