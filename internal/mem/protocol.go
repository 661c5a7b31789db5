package mem

import "fmt"

// State is a coherence state in the MOESI lattice. Every protocol uses a
// subset: MSI runs {I,S,M}, MESI adds Exclusive, MOESI adds Owned. The
// states describe one L1's copy of a line; the directory's view (sharer
// set + owner pointer) is deliberately coarser — it cannot distinguish E
// from M (the E→M upgrade is silent) and records both as "owner".
type State uint8

const (
	// Invalid: no copy.
	Invalid State = iota
	// Shared: clean copy, other copies may exist; writes need ownership.
	Shared
	// Exclusive: clean copy, provably sole; a write upgrades to Modified
	// silently, with no directory traffic (MESI/MOESI only).
	Exclusive
	// Owned: dirty copy with readers: the holder forwards the line
	// cache-to-cache on remote reads instead of writing it back, and
	// stays responsible for the data (MOESI only).
	Owned
	// Modified: dirty sole copy.
	Modified
)

// String renders the customary one-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether a copy in this state holds data the L2 does not.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Event is one stimulus a cached copy can receive. Local events come from
// the owning core's access stream; remote events arrive through the
// directory from other cores' gated memory phases.
type Event uint8

const (
	// EvLocalRead: the core reads the line (hit, or the fill of a miss).
	EvLocalRead Event = iota
	// EvLocalWrite: the core writes the line (hit, merged store, or the
	// fill of a write miss).
	EvLocalWrite
	// EvWriteback: the L1 writes the dirty victim back to the L2 on a
	// conflict miss. The copy is downgraded, not dropped: it stays
	// readable (clean) until the incoming refill replaces it.
	EvWriteback
	// EvReplace: the incoming refill overwrites the victim's frame; the
	// copy vanishes silently.
	EvReplace
	// EvRemoteRead: another core read the line and the directory
	// consulted this copy as its owner.
	EvRemoteRead
	// EvRemoteWrite: another core claimed ownership; this copy (and any
	// refill of it still in flight) is invalidated.
	EvRemoteWrite
	// EvRecall: the L2 evicted the line and back-invalidated it out of
	// every sharer (inclusion).
	EvRecall
)

// Events lists every event, for table enumeration.
var Events = []Event{EvLocalRead, EvLocalWrite, EvWriteback, EvReplace, EvRemoteRead, EvRemoteWrite, EvRecall}

// String names the event.
func (e Event) String() string {
	switch e {
	case EvLocalRead:
		return "LocalRead"
	case EvLocalWrite:
		return "LocalWrite"
	case EvWriteback:
		return "Writeback"
	case EvReplace:
		return "Replace"
	case EvRemoteRead:
		return "RemoteRead"
	case EvRemoteWrite:
		return "RemoteWrite"
	case EvRecall:
		return "Recall"
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Guard conditions a transition on the directory's sharer view at the
// moment of the event. GuardNone transitions apply unconditionally;
// GuardSole/GuardShared split one (state, event) pair on whether any
// other core is recorded for the line — the MESI/MOESI read-fill choice
// between Exclusive and Shared.
type Guard uint8

const (
	GuardNone Guard = iota
	GuardSole
	GuardShared
)

// String names the guard.
func (g Guard) String() string {
	switch g {
	case GuardNone:
		return "-"
	case GuardSole:
		return "sole"
	case GuardShared:
		return "shared"
	}
	return fmt.Sprintf("Guard(%d)", uint8(g))
}

// Transition is one declared edge of a protocol's state machine. The
// conformance harness (internal/mem/conftest) checks the declared table
// two ways: statically, that the table is well-formed and consistent with
// the protocol's decision hooks; and dynamically, that every transition
// the hierarchy actually performs appears in the table.
type Transition struct {
	From  State
	Ev    Event
	Guard Guard
	To    State
}

// ForwardAction is what a remote read asks of the line's current owner.
type ForwardAction uint8

const (
	// ForwardNone: the owner's copy is clean (or gone); the L2's data is
	// current and no transfer rides the bus.
	ForwardNone ForwardAction = iota
	// ForwardWriteback: the owner forwards its dirty line through the
	// bank and the L2 absorbs it — the MSI/MESI M→S downgrade. Counted
	// as a WritebackForward.
	ForwardWriteback
	// ForwardOwner: the owner forwards its dirty line cache-to-cache and
	// keeps it dirty (M/O→O) — MOESI's Owned state. The L2 is not
	// updated. Counted as an OwnerForward.
	ForwardOwner
)

// Protocol is a pluggable invalidation-based coherence protocol over the
// banked L2's directory. The generic controller (BankedL2 + L1) owns all
// mechanism — directory bookkeeping, bus reservations, invalidation
// fan-out, refill squashing — and consults the protocol only for policy:
// what state a read fill is granted, whether a write to a held copy must
// ask the directory for ownership, and how the owner of a line reacts to
// a remote read. Transitions() declares the full state machine those
// hooks induce, which the conformance harness holds the implementation
// to.
type Protocol interface {
	// Name is the registry key ("msi", "mesi", "moesi").
	Name() string
	// Description is one line for CLI help.
	Description() string
	// States lists the states the protocol uses, Invalid first.
	States() []State
	// Transitions declares the complete (state × event) machine. A
	// (state, event) pair with no entry is declared impossible: the
	// conformance harness fails if the hierarchy ever performs it.
	Transitions() []Transition

	// ReadFillState is the state granted to a read miss or read join;
	// sole reports whether the directory records no other copy.
	ReadFillState(sole bool) State
	// NeedsOwnership reports whether a write while holding st must claim
	// ownership through the directory before dirtying the copy; false
	// means the write upgrades silently (Exclusive) or already owns the
	// line (Modified).
	NeedsOwnership(st State) bool
	// OnRemoteRead maps the consulted owner's local state to its next
	// state and the forwarding the controller must model.
	OnRemoteRead(st State) (State, ForwardAction)
}

// msiProtocol is the PR-5 protocol, unchanged: no Exclusive, no Owned.
// Its owner pointer is only ever set for Modified copies, which are dirty
// by construction, so a remote read forwards unconditionally — exactly
// the hardwired dirJoin path it replaced, byte-identical by golden pin.
type msiProtocol struct{}

func (msiProtocol) Name() string        { return "msi" }
func (msiProtocol) Description() string { return "MSI: write-invalidate baseline (PR-5 behaviour)" }
func (msiProtocol) States() []State     { return []State{Invalid, Shared, Modified} }

func (msiProtocol) ReadFillState(bool) State { return Shared }

func (msiProtocol) NeedsOwnership(st State) bool { return st == Shared || st == Owned }

func (msiProtocol) OnRemoteRead(State) (State, ForwardAction) {
	return Shared, ForwardWriteback
}

func (msiProtocol) Transitions() []Transition {
	return []Transition{
		{Invalid, EvLocalRead, GuardNone, Shared},
		{Invalid, EvLocalWrite, GuardNone, Modified},
		{Invalid, EvRemoteRead, GuardNone, Invalid},
		{Invalid, EvRemoteWrite, GuardNone, Invalid},
		{Invalid, EvRecall, GuardNone, Invalid},
		{Shared, EvLocalRead, GuardNone, Shared},
		{Shared, EvLocalWrite, GuardNone, Modified},
		{Shared, EvReplace, GuardNone, Invalid},
		{Shared, EvRemoteRead, GuardNone, Shared},
		{Shared, EvRemoteWrite, GuardNone, Invalid},
		{Shared, EvRecall, GuardNone, Invalid},
		{Modified, EvLocalRead, GuardNone, Modified},
		{Modified, EvLocalWrite, GuardNone, Modified},
		{Modified, EvWriteback, GuardNone, Shared},
		{Modified, EvReplace, GuardNone, Invalid},
		{Modified, EvRemoteRead, GuardNone, Shared},
		{Modified, EvRemoteWrite, GuardNone, Invalid},
		{Modified, EvRecall, GuardNone, Invalid},
	}
}

// mesiProtocol adds the Exclusive state: a read that finds no other copy
// is granted E, and the first write to an E copy upgrades to M silently —
// no Upgrade request, no invalidation round. The directory records an E
// grant as "owner" (it cannot see the silent upgrade), and a remote read
// asks the owner port for its actual state: a still-clean E downgrades to
// S for free, a silently-upgraded M forwards like MSI.
type mesiProtocol struct{}

func (mesiProtocol) Name() string { return "mesi" }
func (mesiProtocol) Description() string {
	return "MESI: Exclusive state makes private read-then-write upgrade silently"
}
func (mesiProtocol) States() []State { return []State{Invalid, Shared, Exclusive, Modified} }

func (mesiProtocol) ReadFillState(sole bool) State {
	if sole {
		return Exclusive
	}
	return Shared
}

func (mesiProtocol) NeedsOwnership(st State) bool { return st == Shared || st == Owned }

func (mesiProtocol) OnRemoteRead(st State) (State, ForwardAction) {
	switch st {
	case Modified:
		return Shared, ForwardWriteback
	case Exclusive, Shared:
		return Shared, ForwardNone
	}
	// The owner lost its copy (silent clean drop, or the dirty-replace
	// artifact): nothing to downgrade, the L2 serves the reader.
	return Invalid, ForwardNone
}

func (mesiProtocol) Transitions() []Transition {
	return append(exclusiveEdges(), []Transition{
		{Invalid, EvLocalRead, GuardSole, Exclusive},
		{Invalid, EvLocalRead, GuardShared, Shared},
		{Invalid, EvLocalWrite, GuardNone, Modified},
		{Invalid, EvRemoteRead, GuardNone, Invalid},
		{Invalid, EvRemoteWrite, GuardNone, Invalid},
		{Invalid, EvRecall, GuardNone, Invalid},
		{Shared, EvLocalRead, GuardNone, Shared},
		{Shared, EvLocalWrite, GuardNone, Modified},
		{Shared, EvReplace, GuardNone, Invalid},
		{Shared, EvRemoteRead, GuardNone, Shared},
		{Shared, EvRemoteWrite, GuardNone, Invalid},
		{Shared, EvRecall, GuardNone, Invalid},
		{Modified, EvLocalRead, GuardNone, Modified},
		{Modified, EvLocalWrite, GuardNone, Modified},
		{Modified, EvWriteback, GuardNone, Shared},
		{Modified, EvReplace, GuardNone, Invalid},
		{Modified, EvRemoteRead, GuardNone, Shared},
		{Modified, EvRemoteWrite, GuardNone, Invalid},
		{Modified, EvRecall, GuardNone, Invalid},
	}...)
}

// exclusiveEdges is the Exclusive state's machine, shared by MESI and
// MOESI: silent E→M on a local write, free E→S downgrade on a remote
// read, silent clean drop on replacement.
func exclusiveEdges() []Transition {
	return []Transition{
		{Exclusive, EvLocalRead, GuardNone, Exclusive},
		{Exclusive, EvLocalWrite, GuardNone, Modified},
		{Exclusive, EvReplace, GuardNone, Invalid},
		{Exclusive, EvRemoteRead, GuardNone, Shared},
		{Exclusive, EvRemoteWrite, GuardNone, Invalid},
		{Exclusive, EvRecall, GuardNone, Invalid},
	}
}

// moesiProtocol adds the Owned state on top of MESI: the owner of a dirty
// line answers a remote read by forwarding the line cache-to-cache and
// keeping it dirty (M/O→O) instead of writing it back to the L2 — the
// writeback-forward traffic MSI pays per read of a dirty line becomes an
// OwnerForward, and the L2 is only updated when the owner is finally
// invalidated or evicts the line.
type moesiProtocol struct{}

func (moesiProtocol) Name() string { return "moesi" }
func (moesiProtocol) Description() string {
	return "MOESI: Owned state forwards dirty lines cache-to-cache without L2 writebacks"
}
func (moesiProtocol) States() []State {
	return []State{Invalid, Shared, Exclusive, Owned, Modified}
}

func (moesiProtocol) ReadFillState(sole bool) State {
	if sole {
		return Exclusive
	}
	return Shared
}

func (moesiProtocol) NeedsOwnership(st State) bool { return st == Shared || st == Owned }

func (moesiProtocol) OnRemoteRead(st State) (State, ForwardAction) {
	switch st {
	case Modified, Owned:
		return Owned, ForwardOwner
	case Exclusive, Shared:
		return Shared, ForwardNone
	}
	return Invalid, ForwardNone
}

func (moesiProtocol) Transitions() []Transition {
	return append(exclusiveEdges(), []Transition{
		{Invalid, EvLocalRead, GuardSole, Exclusive},
		{Invalid, EvLocalRead, GuardShared, Shared},
		{Invalid, EvLocalWrite, GuardNone, Modified},
		{Invalid, EvRemoteRead, GuardNone, Invalid},
		{Invalid, EvRemoteWrite, GuardNone, Invalid},
		{Invalid, EvRecall, GuardNone, Invalid},
		{Shared, EvLocalRead, GuardNone, Shared},
		{Shared, EvLocalWrite, GuardNone, Modified},
		{Shared, EvReplace, GuardNone, Invalid},
		{Shared, EvRemoteRead, GuardNone, Shared},
		{Shared, EvRemoteWrite, GuardNone, Invalid},
		{Shared, EvRecall, GuardNone, Invalid},
		{Owned, EvLocalRead, GuardNone, Owned},
		{Owned, EvLocalWrite, GuardNone, Modified},
		{Owned, EvWriteback, GuardNone, Shared},
		{Owned, EvReplace, GuardNone, Invalid},
		{Owned, EvRemoteRead, GuardNone, Owned},
		{Owned, EvRemoteWrite, GuardNone, Invalid},
		{Owned, EvRecall, GuardNone, Invalid},
		{Modified, EvLocalRead, GuardNone, Modified},
		{Modified, EvLocalWrite, GuardNone, Modified},
		{Modified, EvWriteback, GuardNone, Shared},
		{Modified, EvReplace, GuardNone, Invalid},
		{Modified, EvRemoteRead, GuardNone, Owned},
		{Modified, EvRemoteWrite, GuardNone, Invalid},
		{Modified, EvRecall, GuardNone, Invalid},
	}...)
}

// protocolEntry pairs a registry name with its protocol; the name is the
// registry key and must match the protocol's own Name().
type protocolEntry struct {
	name string
	p    Protocol
}

// protocols mirrors the policy/preset registries: enumerable, looked up
// by name, default (MSI, the pinned PR-5 behaviour) first.
//
//vpr:registry coherence-protocols
var protocols = []protocolEntry{
	{"msi", msiProtocol{}},
	{"mesi", mesiProtocol{}},
	{"moesi", moesiProtocol{}},
}

// DefaultProtocol is the protocol an empty selection resolves to.
const DefaultProtocol = "msi"

// Protocols lists the registered protocols, default first.
func Protocols() []Protocol {
	out := make([]Protocol, len(protocols))
	for i, e := range protocols {
		out[i] = e.p
	}
	return out
}

// ProtocolByName resolves a protocol name; the empty string selects the
// default (MSI).
func ProtocolByName(name string) (Protocol, error) {
	if name == "" {
		name = DefaultProtocol
	}
	for _, e := range protocols {
		if e.name == name {
			return e.p, nil
		}
	}
	return nil, fmt.Errorf("mem: unknown coherence protocol %q (have msi, mesi, moesi)", name)
}
