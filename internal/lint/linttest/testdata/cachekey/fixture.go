// Package fixture seeds cachekey violations across all three coverage
// proofs: a GoString renderer that drops a field, a //vpr:keyfunc
// renderer that drops a field, and a %#v struct with a non-canonical
// field type — plus a //vpr:nocachekey observer waiver and fully
// conforming structs alongside each, and a //vpr:keyfunc naming no
// cache-key struct.
package fixture

import "strconv"

// Config renders its own key: GoString must cover every field.
//
//vpr:cachekey
type Config struct {
	Size int
	Ways int // want `cache-key field fixture.Config.Ways is not rendered by its GoString method`
	// Probe observes without perturbing results.
	//vpr:nocachekey pure observer
	Probe func()
}

// GoString is Config's canonical key — it forgets Ways.
func (c Config) GoString() string {
	return "Config{" + strconv.Itoa(c.Size) + "}"
}

// Keyed is rendered by the key function below.
//
//vpr:cachekey
type Keyed struct {
	A int
	B int // want `cache-key field fixture.Keyed.B is not rendered by any //vpr:keyfunc key function`
}

// KeyOf is Keyed's canonical renderer — it forgets B.
//
//vpr:keyfunc Keyed
func KeyOf(k Keyed) string {
	return strconv.Itoa(k.A)
}

// Spec has neither GoString nor keyfunc: %#v renders it field by field,
// so every field type must render canonically.
//
//vpr:cachekey
type Spec struct {
	Name string
	Opts map[string]int // want `cache-key field fixture.Spec.Opts .*non-canonically`
}

// Clean is fully covered: %#v over basic fields only.
//
//vpr:cachekey
type Clean struct {
	N int
	S string
}

// MCSpec mirrors the multicore spec shape: string *selection* fields
// (protocol, directory kind) that switch behavior and must reach the
// key, or two runs differing only in a selection would share a cached
// result. The renderer below covers Protocol but forgets Directory —
// exactly the regression mode of growing the spec without growing the
// key.
//
//vpr:cachekey
type MCSpec struct {
	Workload  string
	Protocol  string
	Directory string // want `cache-key field fixture.MCSpec.Directory is not rendered by any //vpr:keyfunc key function`
}

// MCKey is MCSpec's canonical renderer — it forgets Directory.
//
//vpr:keyfunc MCSpec
func MCKey(s MCSpec) string {
	return s.Workload + "|" + s.Protocol
}

// keyOfSpecs names a type that carries no //vpr:cachekey, so it covers
// nothing.
//
//vpr:keyfunc Specs // want `//vpr:keyfunc Specs names no //vpr:cachekey struct`
func keyOfSpecs() string { return "" }
