package core

import "repro/internal/reuse"

// ring is a fixed-capacity double-ended queue over a power-of-two
// circular buffer. The renamers keep their per-instruction bookkeeping in
// rings instead of maps: instructions are renamed in program order with
// consecutive numbers, retired from the front (commit) and undone from
// the back (squash), so the live set is always a contiguous window and an
// instruction sits at its number's offset from the oldest one. Compared
// to a map this removes one heap allocation and one hash per instruction
// from the simulation hot path. A ring is sized for the window when its
// renamer is built or reset and never grows: a push into a full ring is a
// protocol violation and panics.
type ring[T any] struct {
	buf  []T // len(buf) is a power of two
	head int
	n    int
	max  int // capacity: the window the renamer was built for
}

// reset empties the ring for capacity elements, keeping its buffer when
// that covers the power of two the capacity rounds up to.
func (r *ring[T]) reset(capacity int) {
	c := 1
	for c < capacity {
		c <<= 1
	}
	*r = ring[T]{buf: reuse.Slice(r.buf, c), max: capacity}
}

func (r *ring[T]) len() int { return r.n }

// at returns a pointer to the i-th oldest element.
func (r *ring[T]) at(i int) *T {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// atOffset returns the element off places after the oldest, or nil when
// the window holds no such element.
func (r *ring[T]) atOffset(off int64) *T {
	if off < 0 || off >= int64(r.n) {
		return nil
	}
	return r.at(int(off))
}

// push appends a zeroed element and returns a pointer to it, for the
// caller to fill in place.
func (r *ring[T]) push() *T {
	if r.n == r.max {
		panic("core: more instructions in flight than the renamer's window")
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	var zero T
	*p = zero
	r.n++
	return p
}

func (r *ring[T]) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *ring[T]) popBack() {
	r.n--
}
