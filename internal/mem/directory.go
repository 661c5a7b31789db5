package mem

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Directory abstracts one bank's sharer-tracking representation: which
// cores (conservatively) hold each set's line, and which single core —
// if any — was granted it exclusively (Exclusive or Modified; the
// directory cannot tell them apart because the E→M upgrade is silent).
// Sharer information may be imprecise in the conservative direction only:
// a directory may believe a core holds a line it has silently dropped
// (the extra invalidation is a counted no-op), but must never miss a core
// that does hold one. AppendSharers lists cores in ascending index
// order — part of the determinism contract, since invalidation
// bus reservations happen in visit order.
type Directory interface {
	// Clear forgets everything about a set (its line was replaced).
	Clear(set int)
	// AddSharer records core as holding the set's line; overflowed
	// reports that precision was lost and future visits broadcast.
	AddSharer(set, core int) (overflowed bool)
	// RemoveSharer forgets core's copy (its write-back gave it up).
	RemoveSharer(set, core int)
	// Owner returns the exclusively-granted core, or -1.
	Owner(set int) int
	// SetOwner records core as the exclusive holder.
	SetOwner(set, core int)
	// ClearOwner drops the exclusive grant (the copy was downgraded).
	ClearOwner(set int)
	// OtherSharers reports whether any core besides core may hold the
	// set's line.
	OtherSharers(set, core int) bool
	// AppendSharers appends every core that may hold the set's line to
	// dst, in ascending core order, skipping except (-1 lists all), and
	// returns the extended slice. The caller owns dst and reuses it
	// across calls (the invalidation paths are hot — no closures, no
	// per-round allocation once dst has capacity for every core).
	// broadcast reports that precision was lost and the listing covered
	// every attached core rather than a tracked subset.
	AppendSharers(set, except int, dst []int16) (sharers []int16, broadcast bool)
}

// directoryKindEntry is one registered directory representation.
type directoryKindEntry struct {
	name        string
	description string
	build       func(sets, cores, arg int) Directory
}

// directoryKinds mirrors the protocol registry: enumerable, looked up by
// name, default (the PR-5 full-map bitmask) first.
//
//vpr:registry directory-kinds
var directoryKinds = []directoryKindEntry{
	{"fullmap", "full-map bitmask: exact sharer sets, at most 64 cores",
		func(sets, cores, arg int) Directory { return newFullMapDir(sets) }},
	{"limited", "limited pointers (limited:N, N ≤ 255, default 4): N exact sharers, broadcast past that; no core cap",
		func(sets, cores, arg int) Directory { return newLimitedDir(sets, cores, arg) }},
}

// DefaultDirectoryKind is the representation an empty selection resolves
// to.
const DefaultDirectoryKind = "fullmap"

// defaultLimitedPtrs is the pointer budget of a bare "limited" selection
// — Dir_4 B in the classic taxonomy.
const defaultLimitedPtrs = 4

// maxLimitedPtrs is the largest pointer budget: limitedDir counts a set's
// pointers in a uint8.
const maxLimitedPtrs = 255

// DirectoryKindInfo describes one registered representation for CLI help.
type DirectoryKindInfo struct {
	Name        string
	Description string
}

// DirectoryKinds lists the registered representations, default first.
func DirectoryKinds() []DirectoryKindInfo {
	out := make([]DirectoryKindInfo, len(directoryKinds))
	for i, e := range directoryKinds {
		out[i] = DirectoryKindInfo{Name: e.name, Description: e.description}
	}
	return out
}

// ParseDirectoryKind validates a directory selection — a registered name,
// optionally parameterized as "limited:N" — without building anything,
// so config validation can fail fast, and returns the one canonical
// spelling of its representation: "fullmap" for "" and "fullmap", and
// "limited:N" with N in plain decimal otherwise ("limited" is
// "limited:4"; "limited:04" and "limited:+4" are "limited:4"). Equal
// representations thus compare, print and key caches equally.
func ParseDirectoryKind(kind string) (string, error) {
	e, arg, err := splitDirectoryKind(kind)
	switch {
	case err != nil:
		return "", err
	case e.name != "limited":
		return e.name, nil
	case arg == 0:
		arg = defaultLimitedPtrs
	}
	return e.name + ":" + strconv.Itoa(arg), nil
}

// splitDirectoryKind resolves a selection to its registry entry and
// pointer argument.
func splitDirectoryKind(kind string) (directoryKindEntry, int, error) {
	if kind == "" {
		kind = DefaultDirectoryKind
	}
	name, argStr, hasArg := strings.Cut(kind, ":")
	arg := 0
	if hasArg {
		if name != "limited" {
			return directoryKindEntry{}, 0, fmt.Errorf("mem: directory kind %q takes no argument", name)
		}
		n, err := strconv.Atoi(argStr)
		if err != nil || n <= 0 || n > maxLimitedPtrs {
			return directoryKindEntry{}, 0, fmt.Errorf("mem: bad pointer count in directory kind %q (want 1 to %d)", kind, maxLimitedPtrs)
		}
		arg = n
	}
	for _, e := range directoryKinds {
		if e.name == name {
			return e, arg, nil
		}
	}
	return directoryKindEntry{}, 0, fmt.Errorf("mem: unknown directory kind %q (have fullmap, limited[:N])", kind)
}

// NewDirectory builds one bank's directory of the given kind ("" =
// fullmap; "limited" or "limited:N" for the pointer scheme) over sets
// sets tracking cores cores.
func NewDirectory(kind string, sets, cores int) (Directory, error) {
	e, arg, err := splitDirectoryKind(kind)
	if err != nil {
		return nil, err
	}
	if e.name == "fullmap" && cores > 64 {
		return nil, fmt.Errorf("mem: the full-map directory tracks at most 64 cores, have %d — use the limited-pointer directory (DirectoryKind \"limited\")", cores)
	}
	return e.build(sets, cores, arg), nil
}

// fullMapDir is the PR-5 representation: one sharer bit per core per set
// plus an exclusive-owner pointer. Exact, and capped at 64 cores by the
// bitmask width.
type fullMapDir struct {
	sharers []uint64
	owner   []int16
}

func newFullMapDir(sets int) *fullMapDir {
	d := &fullMapDir{sharers: make([]uint64, sets), owner: make([]int16, sets)}
	for i := range d.owner {
		d.owner[i] = -1
	}
	return d
}

func (d *fullMapDir) Clear(set int) {
	d.sharers[set] = 0
	d.owner[set] = -1
}

func (d *fullMapDir) AddSharer(set, core int) bool {
	d.sharers[set] |= 1 << uint(core)
	return false
}

func (d *fullMapDir) RemoveSharer(set, core int) {
	d.sharers[set] &^= 1 << uint(core)
}

func (d *fullMapDir) Owner(set int) int { return int(d.owner[set]) }

func (d *fullMapDir) SetOwner(set, core int) { d.owner[set] = int16(core) }

func (d *fullMapDir) ClearOwner(set int) { d.owner[set] = -1 }

func (d *fullMapDir) OtherSharers(set, core int) bool {
	return d.sharers[set]&^(1<<uint(core)) != 0
}

func (d *fullMapDir) AppendSharers(set, except int, dst []int16) ([]int16, bool) {
	s := d.sharers[set]
	if except >= 0 {
		s &^= 1 << uint(except)
	}
	for ; s != 0; s &= s - 1 {
		dst = append(dst, int16(bits.TrailingZeros64(s)))
	}
	return dst, false
}

// limitedDir is the Dir_N B limited-pointer representation: each set
// tracks up to slots exact sharer pointers; when a set's line gains more
// sharers than that, the set degrades to broadcast mode — the directory
// only knows "many", and an invalidation round visits every attached
// core (counted per message, like real broadcast invalidations, plus a
// DirBroadcast for the round). Precision returns when the set's line is
// replaced (Clear). Pointers are kept sorted ascending so visits honour
// the deterministic core order. No core cap: the pointer width, not a
// bitmask, bounds the core count.
type limitedDir struct {
	ptrs     []int16 // slots per set, sorted ascending, -1 = empty
	n        []uint8
	overflow []bool
	owner    []int16
	slots    int
	cores    int
}

func newLimitedDir(sets, cores, slots int) *limitedDir {
	if slots <= 0 {
		slots = defaultLimitedPtrs
	}
	d := &limitedDir{
		ptrs:     make([]int16, sets*slots),
		n:        make([]uint8, sets),
		overflow: make([]bool, sets),
		owner:    make([]int16, sets),
		slots:    slots,
		cores:    cores,
	}
	for i := range d.owner {
		d.owner[i] = -1
	}
	return d
}

func (d *limitedDir) set(set int) []int16 { return d.ptrs[set*d.slots : (set+1)*d.slots] }

func (d *limitedDir) Clear(set int) {
	d.n[set] = 0
	d.overflow[set] = false
	d.owner[set] = -1
}

func (d *limitedDir) AddSharer(set, core int) bool {
	if d.overflow[set] {
		return false
	}
	p := d.set(set)
	n := int(d.n[set])
	i := 0
	for i < n && int(p[i]) < core {
		i++
	}
	if i < n && int(p[i]) == core {
		return false
	}
	if n == d.slots {
		// Pointer exhaustion: degrade the set to broadcast mode.
		d.overflow[set] = true
		return true
	}
	copy(p[i+1:n+1], p[i:n])
	p[i] = int16(core)
	d.n[set] = uint8(n + 1)
	return false
}

func (d *limitedDir) RemoveSharer(set, core int) {
	if d.overflow[set] {
		// Broadcast mode has no per-core knowledge to retract.
		return
	}
	p := d.set(set)
	n := int(d.n[set])
	for i := 0; i < n; i++ {
		if int(p[i]) == core {
			copy(p[i:n-1], p[i+1:n])
			d.n[set] = uint8(n - 1)
			return
		}
	}
}

func (d *limitedDir) Owner(set int) int { return int(d.owner[set]) }

func (d *limitedDir) SetOwner(set, core int) { d.owner[set] = int16(core) }

func (d *limitedDir) ClearOwner(set int) { d.owner[set] = -1 }

func (d *limitedDir) OtherSharers(set, core int) bool {
	if d.overflow[set] {
		return true
	}
	p := d.set(set)
	for i := 0; i < int(d.n[set]); i++ {
		if int(p[i]) != core {
			return true
		}
	}
	return false
}

func (d *limitedDir) AppendSharers(set, except int, dst []int16) ([]int16, bool) {
	if d.overflow[set] {
		for c := 0; c < d.cores; c++ {
			if c != except {
				dst = append(dst, int16(c))
			}
		}
		return dst, true
	}
	p := d.set(set)
	for i := 0; i < int(d.n[set]); i++ {
		if c := p[i]; int(c) != except {
			dst = append(dst, c)
		}
	}
	return dst, false
}
