// Package fixture seeds annotcheck violations — a typo'd directive,
// misplacements on functions, types, fields, consts and interface
// methods, and malformed arguments — next to conforming directives in
// every placement class. AnnotCheck takes no waiver: a bad directive
// is fixed, not excused, so the honored-waiver half of this fixture is
// the conforming placements staying quiet.
package fixture

// hot carries a conforming function directive.
//
//vpr:hotpath
func hot() {}

// typo misspells hotpath, which would silently disable the check.
//
//vpr:hotpth // want `unknown //vpr: directive "hotpth"`
func typo() {}

// misplacedStats puts a struct directive on a function.
//
//vpr:stats // want `//vpr:stats is misplaced on a function declaration — it belongs on a struct type declaration`
func misplacedStats() {}

// S carries a line waiver in its type doc, where no line exists.
//
//vpr:allowalloc stray reason // want `//vpr:allowalloc is misplaced on a struct type declaration — it belongs on a statement line`
type S struct {
	// N shows a conforming field directive.
	//
	//vpr:nocachekey display only
	N int64
}

// Constants take no directives at all.
//
//vpr:cachekey // want `//vpr:cachekey is misplaced on a declaration that takes no directives`
const answer = 42

// noArg forgets statsink's TYPE argument.
//
//vpr:statsink // want `//vpr:statsink needs exactly 1 argument\(s\), got 0`
func noArg() {}

// chatty hands hotpath an argument it does not take.
//
//vpr:hotpath gotta go fast // want `//vpr:hotpath takes no arguments, got "gotta go fast"`
func chatty() {}

// Port is an interface: neither it nor its methods take directives.
type Port interface {
	// Write mutates.
	//
	//vpr:memphase // want `//vpr:memphase is misplaced on a declaration that takes no directives — it belongs on a function declaration`
	Write(v int)
}

// Keyless puts the key-renderer directive on a struct instead of its
// renderer function.
//
//vpr:keyfunc Keyless // want `//vpr:keyfunc is misplaced on a struct type declaration — it belongs on a function declaration`
type Keyless struct{ N int }

// waived puts the field-only observer waiver on a function.
//
//vpr:nocachekey pure observer // want `//vpr:nocachekey is misplaced on a function declaration — it belongs on a struct field`
func waived() {}

// use keeps the declarations referenced.
func use() {
	hot()
	typo()
	misplacedStats()
	noArg()
	chatty()
	waived()
	_ = S{N: answer}
	_ = Keyless{N: 1}
}
