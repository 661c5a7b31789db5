package core

// ring is a growable double-ended queue over a power-of-two circular
// buffer. The renamers keep their per-instruction bookkeeping in rings
// instead of maps: instructions are renamed in program order with
// consecutive numbers, retired from the front (commit) and undone from
// the back (squash), so the live set is always a contiguous window and an
// instruction sits at its number's offset from the oldest one. Compared
// to a map this removes one heap allocation and one hash per instruction
// from the simulation hot path.
type ring[T any] struct {
	buf  []T // len(buf) is a power of two
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return ring[T]{buf: make([]T, c)}
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
// caller to fill in place. The pointer is valid until the next grow
// (push when full).
func (r *ring[T]) push() *T {
	if r.n == len(r.buf) {
		r.grow()
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

func (r *ring[T]) grow() {
	next := make([]T, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		next[i] = *r.at(i)
	}
	r.buf = next
	r.head = 0
}
