//go:build !amd64

package main

// cpuModel has no portable source off amd64 that avoids reading host
// files, so the fingerprint says so.
func cpuModel() string { return "unknown" }
