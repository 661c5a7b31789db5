package conftest

import (
	"testing"

	"repro/internal/mem"
)

// pairKey groups a protocol's declared transitions by (state, event).
type pairKey struct {
	from mem.State
	ev   mem.Event
}

func groupTable(p mem.Protocol) map[pairKey][]mem.Transition {
	out := make(map[pairKey][]mem.Transition)
	for _, tr := range p.Transitions() {
		k := pairKey{tr.From, tr.Ev}
		out[k] = append(out[k], tr)
	}
	return out
}

func stateSet(p mem.Protocol) map[mem.State]bool {
	out := make(map[mem.State]bool)
	for _, st := range p.States() {
		out[st] = true
	}
	return out
}

// TestTransitionTablesWellFormed enumerates the full (state × event) grid
// of every registered protocol against its declared table: each pair is
// either declared impossible (no entry), covered by one unconditional
// edge, or split by exactly a GuardSole/GuardShared pair; edges stay
// inside the protocol's declared state set; and the pairs the generic
// controller relies on are never declared impossible.
func TestTransitionTablesWellFormed(t *testing.T) {
	for _, p := range mem.Protocols() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			states := p.States()
			if len(states) == 0 || states[0] != mem.Invalid {
				t.Fatalf("States() must start with Invalid, got %v", states)
			}
			inSet := stateSet(p)
			if !inSet[mem.Modified] || !inSet[mem.Shared] {
				t.Fatalf("States() must include Shared and Modified, got %v", states)
			}

			grouped := groupTable(p)
			for k, entries := range grouped {
				if !inSet[k.from] {
					t.Errorf("(%v, %v): From outside States()", k.from, k.ev)
				}
				for _, tr := range entries {
					if !inSet[tr.To] {
						t.Errorf("%v -%v-> %v: To outside States()", tr.From, tr.Ev, tr.To)
					}
				}
				switch len(entries) {
				case 1:
					if g := entries[0].Guard; g != mem.GuardNone {
						t.Errorf("(%v, %v): lone entry must be unconditional, has guard %v", k.from, k.ev, g)
					}
				case 2:
					guards := map[mem.Guard]bool{entries[0].Guard: true, entries[1].Guard: true}
					if !guards[mem.GuardSole] || !guards[mem.GuardShared] {
						t.Errorf("(%v, %v): a split pair must be exactly {sole, shared}, got %v/%v",
							k.from, k.ev, entries[0].Guard, entries[1].Guard)
					}
				default:
					t.Errorf("(%v, %v): %d entries — a pair is covered by one edge or one guard split",
						k.from, k.ev, len(entries))
				}
			}

			// The controller's obligations over the full grid: a valid copy
			// must answer local accesses, replacement and both remote
			// messages; only dirty states write back; a miss must be able
			// to fill for both intents. Everything uncovered is declared
			// impossible — enumerate it so the declaration is visible.
			for _, st := range states {
				for _, ev := range mem.Events {
					_, covered := grouped[pairKey{st, ev}]
					required := false
					switch {
					case st == mem.Invalid:
						required = ev == mem.EvLocalRead || ev == mem.EvLocalWrite
					case ev == mem.EvWriteback:
						required = st.Dirty()
						if covered && !st.Dirty() {
							t.Errorf("(%v, Writeback) declared: only dirty states write back", st)
						}
					default:
						required = ev != mem.EvWriteback
					}
					if required && !covered {
						t.Errorf("(%v, %v): required by the controller but declared impossible", st, ev)
					}
					if !covered {
						t.Logf("declared impossible: (%v, %v)", st, ev)
					}
				}
			}
		})
	}
}

// TestHooksMatchTables checks that each protocol's decision hooks and its
// declared table describe the same machine: the fill states, the write
// path, and the owner's reaction to a remote read must all be declared
// edges with the properties the controller assumes.
func TestHooksMatchTables(t *testing.T) {
	for _, p := range mem.Protocols() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			grouped := groupTable(p)
			inSet := stateSet(p)

			// Read fills are the (Invalid, LocalRead) edges.
			fills := grouped[pairKey{mem.Invalid, mem.EvLocalRead}]
			sole, shared := p.ReadFillState(true), p.ReadFillState(false)
			switch len(fills) {
			case 1:
				if fills[0].To != sole || fills[0].To != shared {
					t.Errorf("unconditional read-fill edge grants %v but hooks grant sole=%v shared=%v",
						fills[0].To, sole, shared)
				}
			case 2:
				for _, tr := range fills {
					want := shared
					if tr.Guard == mem.GuardSole {
						want = sole
					}
					if tr.To != want {
						t.Errorf("read-fill edge with guard %v grants %v, hook grants %v", tr.Guard, tr.To, want)
					}
				}
			}
			if !inSet[sole] || !inSet[shared] {
				t.Errorf("ReadFillState grants outside States(): sole=%v shared=%v", sole, shared)
			}

			// Every write lands in Modified, whatever the starting state.
			for _, tr := range p.Transitions() {
				if tr.Ev == mem.EvLocalWrite && tr.To != mem.Modified {
					t.Errorf("%v -LocalWrite-> %v: every write must land in Modified", tr.From, tr.To)
				}
			}

			// NeedsOwnership draws the silent-upgrade line: clean shared
			// states must ask the directory, exclusive and dirty-sole
			// states must not (Exclusive is the whole point of E; Modified
			// already owns the line; Owned still has readers to kill).
			for _, st := range p.States() {
				want := st == mem.Shared || st == mem.Owned
				if got := p.NeedsOwnership(st); got != want {
					t.Errorf("NeedsOwnership(%v) = %v, want %v", st, got, want)
				}
			}

			// The owner's remote-read reaction must be a declared edge, and
			// the forwarding must match the data movement the states imply:
			// dirty data cannot be dropped silently, clean data cannot be
			// forwarded dirty.
			for _, st := range p.States() {
				if st == mem.Invalid {
					// The stale-entry case: the hierarchy uses only the
					// action (the copy is already gone), so the table has
					// nothing to match.
					continue
				}
				next, act := p.OnRemoteRead(st)
				if e := (Edge{st, mem.EvRemoteRead, next}); !DeclaredEdges(p)[e] {
					t.Errorf("OnRemoteRead(%v) -> %v: edge %v not declared", st, next, e)
				}
				if st.Dirty() && act == mem.ForwardNone {
					t.Errorf("OnRemoteRead(%v): dirty data dropped without forwarding", st)
				}
				if !st.Dirty() && act != mem.ForwardNone && p.Name() != "msi" {
					// MSI's unconditional forward on a stale owner entry is
					// the pinned PR-5 accounting; no other protocol may
					// forward clean data.
					t.Errorf("OnRemoteRead(%v): clean copy answered with forward action %v", st, act)
				}
				if act == mem.ForwardOwner && !next.Dirty() {
					t.Errorf("OnRemoteRead(%v): owner-forward must keep the copy dirty, went to %v", st, next)
				}
			}
		})
	}
}

// TestProtocolRegistry pins the registry surface the CLIs expose: MSI
// first (the default), names resolving, the empty selection falling back
// to MSI, and unknown names rejected.
func TestProtocolRegistry(t *testing.T) {
	ps := mem.Protocols()
	if len(ps) < 3 {
		t.Fatalf("want at least msi/mesi/moesi registered, have %d", len(ps))
	}
	if ps[0].Name() != mem.DefaultProtocol || ps[0].Name() != "msi" {
		t.Fatalf("default protocol must be msi, registry leads with %q", ps[0].Name())
	}
	for _, p := range ps {
		got, err := mem.ProtocolByName(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Errorf("ProtocolByName(%q) = %v, %v", p.Name(), got, err)
		}
	}
	if p, err := mem.ProtocolByName(""); err != nil || p.Name() != "msi" {
		t.Errorf("empty selection must resolve to msi, got %v, %v", p, err)
	}
	if _, err := mem.ProtocolByName("mosi"); err == nil {
		t.Error("unknown protocol name must be rejected")
	}
	for in, want := range map[string]string{
		"": "fullmap", "fullmap": "fullmap",
		"limited": "limited:4", "limited:8": "limited:8", "limited:08": "limited:8", "limited:+2": "limited:2",
	} {
		if got, err := mem.ParseDirectoryKind(in); err != nil || got != want {
			t.Errorf("ParseDirectoryKind(%q) = %q, %v; want canonical %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"limited:0", "limited:x", "fullmap:4", "coarse"} {
		if _, err := mem.ParseDirectoryKind(bad); err == nil {
			t.Errorf("directory kind %q must be rejected", bad)
		}
	}
}
