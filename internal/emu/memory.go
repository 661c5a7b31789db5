package emu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / isa.WordSize
)

type page [pageWords]uint64

// Memory is a sparse, page-granular 64-bit word memory. The ISA only issues
// 8-byte aligned accesses, so storage is word-addressed internally.
type Memory struct {
	pages map[uint64]*page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// LoadImage copies data to consecutive addresses starting at base, which
// must be word-aligned; a partial last word is zero-padded. It works a page
// at a time and maps no page for an all-zero chunk of an unmapped page,
// since unmapped memory already reads as zero, so zero runs in an image
// cost neither memory nor map traffic.
func (m *Memory) LoadImage(base uint64, data []byte) error {
	if base%isa.WordSize != 0 {
		return fmt.Errorf("emu: image base %#x not %d-byte aligned", base, isa.WordSize)
	}
	for len(data) > 0 {
		off := base % pageBytes
		chunk := data[:min(uint64(len(data)), pageBytes-off)]
		data = data[len(chunk):]
		key := base >> pageShift
		base += uint64(len(chunk))
		p, ok := m.pages[key]
		if !ok {
			if allZero(chunk) {
				continue
			}
			p = new(page)
			m.pages[key] = p
		}
		i := off / isa.WordSize
		for ; len(chunk) >= isa.WordSize; chunk = chunk[isa.WordSize:] {
			p[i] = binary.LittleEndian.Uint64(chunk)
			i++
		}
		if len(chunk) > 0 { // partial last word
			var w [isa.WordSize]byte
			copy(w[:], chunk)
			p[i] = binary.LittleEndian.Uint64(w[:])
		}
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Load reads the word at addr, which must be word-aligned. Unmapped
// addresses read as zero.
func (m *Memory) Load(addr uint64) (uint64, error) {
	if addr%isa.WordSize != 0 {
		return 0, fmt.Errorf("emu: unaligned load at %#x", addr)
	}
	p, ok := m.pages[addr>>pageShift]
	if !ok {
		return 0, nil
	}
	return p[(addr%pageBytes)/isa.WordSize], nil
}

// Store writes the word at addr, which must be word-aligned.
func (m *Memory) Store(addr, val uint64) error {
	if addr%isa.WordSize != 0 {
		return fmt.Errorf("emu: unaligned store at %#x", addr)
	}
	key := addr >> pageShift
	p, ok := m.pages[key]
	if !ok {
		p = new(page)
		m.pages[key] = p
	}
	p[(addr%pageBytes)/isa.WordSize] = val
	return nil
}

// Footprint returns the number of mapped pages (for tests and statistics).
func (m *Memory) Footprint() int { return len(m.pages) }

// Snapshot copies every mapped word into a flat map, for golden-model
// comparisons in tests.
func (m *Memory) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for key, p := range m.pages {
		for i, w := range p {
			if w != 0 {
				out[key<<pageShift+uint64(i*isa.WordSize)] = w
			}
		}
	}
	return out
}
