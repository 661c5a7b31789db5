// Package fixture seeds hotpathalloc violations: a //vpr:hotpath root
// that allocates directly, plain callees that allocate on its behalf
// (one line per allocating construct the analyzer knows), a
// //vpr:coldpath cut the traversal must not cross, an //vpr:allowalloc
// waiver, and unannotated code that may allocate freely.
package fixture

import "fmt"

// Step is the per-cycle root.
//
//vpr:hotpath
func Step(xs []int, n int) []int {
	xs = append(xs, n) // want `append \(growth allocates without preallocated capacity\) in hot-path function fixture.Step`
	if n < 0 {
		panic(fmt.Sprintf("fixture: bad %d", n)) // want `fmt.Sprintf call \(allocates\) in hot-path function fixture.Step`
	}
	helper(n)
	_ = kinds(n, "", nil)
	report(n)
	//vpr:allowalloc fixture waiver: proves the escape hatch works
	waived := make([]int, n)
	_ = waived
	return xs
}

// helper has no annotation of its own: it is hot because Step calls it.
func helper(n int) {
	_ = []int{n} // want `slice literal \(allocates\) in hot-path function fixture.helper \(hot path via fixture.Step\)`
}

// pair is a plain struct for the &composite case.
type pair struct{ a, b int }

// kinds is hot because Step calls it, and allocates once per remaining
// construct.
func kinds(n int, s string, b []byte) any {
	f := func() int { return n } // want `closure literal \(allocates a func value\) in hot-path function fixture.kinds \(hot path via fixture.Step\)`
	m := map[int]int{n: f()}     // want `map literal \(allocates\)`
	p := &pair{n, n}             // want `&composite literal \(escapes to the heap\)`
	t := s + "!"                 // want `string concatenation \(allocates\)`
	xs := make([]int, n)         // want `make \(allocates\)`
	q := new(int)                // want `new \(allocates\)`
	u := string(b)               // want `conversion to string \(allocates\)`
	v := []byte(t)               // want `string-to-slice conversion \(allocates\)`
	_, _, _, _, _, _ = m, p, xs, q, u, v
	return n // want `interface boxing of non-pointer value \(allocates\)`
}

// report is diagnostics-only, cut out of the hot traversal: the Sprint
// below must not be flagged.
//
//vpr:coldpath
func report(n int) {
	_ = fmt.Sprint(n)
}

// Setup is unannotated: allocation is fine outside the hot path.
func Setup(n int) []int {
	return make([]int, n)
}
