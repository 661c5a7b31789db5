// Package fixture seeds reghygiene violations: a duplicate name and an
// entry with no static name in a //vpr:registry table, a table built by
// a call, a table with no initializer, and statements writing a table
// or its entries — alongside conforming entries and a read-only lookup.
package fixture

// Thing is one registry entry.
type Thing struct {
	Name string
	Uses int
}

// dynamic is a name known only at run time.
var dynamic = "gamma"

// registry is the static table.
//
//vpr:registry things
var registry = []Thing{
	{Name: "alpha"},
	{Name: "beta"},
	{Name: "alpha"}, // want `duplicate name "alpha" in registry namespace "things"`
	{Name: dynamic}, // want `registry "things" entry has no statically-known name`
}

// pointers holds its entries by pointer.
//
//vpr:registry pointers
var pointers = []*Thing{{Name: "theta"}}

// built is filled by a call, so its names cannot be read statically.
//
//vpr:registry built
var built = makeThings() // want `//vpr:registry built table built is not initialized with a composite literal`

// empty has no initializer at all.
//
//vpr:registry empty
var empty []Thing // want `//vpr:registry empty table empty is not initialized with a composite literal`

func makeThings() []Thing { return []Thing{{Name: "delta"}} }

// init may not write a table either: the literal is the whole table.
func init() {
	registry = append(registry, Thing{Name: "epsilon"}) // want `registry "things" is written by a statement`
}

// Rename writes entries in place, which changes what ByName returns as
// surely as replacing the table.
func Rename() {
	registry[0] = Thing{Name: "zeta"}  // want `registry "things" is written by a statement`
	registry[1].Name = "eta"           // want `registry "things" is written by a statement`
	(registry[1]).Uses++               // want `registry "things" is written by a statement`
	*pointers[0] = Thing{Name: "iota"} // want `registry "pointers" is written by a statement`
}

// ByName reads the table, which is always legal.
func ByName(name string) (Thing, bool) {
	for _, t := range registry {
		if t.Name == name {
			return t, true
		}
	}
	return Thing{}, false
}

// Use keeps the other tables referenced.
func Use() int { return len(built) + len(empty) }
