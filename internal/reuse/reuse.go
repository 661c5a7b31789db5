// Package reuse takes storage for a simulated machine's buffers. A machine
// is built by resetting storage: a fresh machine's is new, and a finished
// machine's keeps each buffer whose capacity covers the next
// configuration, so a batch of points on one machine shape allocates its
// buffers once.
package reuse

// Slice returns a zeroed slice of length n. It is buf's storage, cleared,
// when buf's capacity covers n, and a new allocation otherwise, which the
// allocator has already zeroed, so a fresh machine pays no second clear.
func Slice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
