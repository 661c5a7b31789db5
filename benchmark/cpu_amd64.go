package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpu_amd64.s).
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002..4, without reading any file.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var brand [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002+i, 0)
		for j, r := range [4]uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(brand[16*i+4*uint32(j):], r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(brand[:]), "\x00"))
}
