package emu

import (
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"repro/internal/isa"
)

// loadWordwise is the reference for LoadImage: one Store per word, zero
// words included, so it maps every page the image touches.
func loadWordwise(m *Memory, base uint64, data []byte) error {
	for off := 0; off < len(data); off += isa.WordSize {
		var w [isa.WordSize]byte
		copy(w[:], data[off:])
		if err := m.Store(base+uint64(off), binary.LittleEndian.Uint64(w[:])); err != nil {
			return err
		}
	}
	return nil
}

// Zero data needs no page: unmapped memory reads as zero. A program whose
// data section is all .space therefore maps nothing until it stores.
func TestLoadImageZeroMapsNoPage(t *testing.T) {
	mem := NewMemory()
	if err := mem.LoadImage(isa.DefaultDataBase+8, make([]byte, 3*pageBytes+5)); err != nil {
		t.Fatal(err)
	}
	if mem.Footprint() != 0 {
		t.Errorf("all-zero image mapped %d pages, want 0", mem.Footprint())
	}

	m := run(t, ".data\nbuf: .space 1048576\n.text\nhalt", 1)
	if n := m.Memory().Footprint(); n != 0 {
		t.Errorf("space-only program mapped %d pages, want 0", n)
	}
}

// LoadImage must leave memory exactly as the word-at-a-time reference does,
// word for word, for any word-aligned base (page-aligned or not), any
// pattern of zero runs and any partial last word, including over words
// already stored, which an image's zeros must overwrite. The image is
// head, then zeroWords zero words, then tail: long zero runs come from one
// number, so the byte inputs stay short and cheap to mutate.
func FuzzLoadImage(f *testing.F) {
	f.Add(uint64(isa.DefaultDataBase), []byte{}, uint16(0), []byte{}, uint64(0))
	f.Add(uint64(isa.DefaultDataBase+24), []byte{1}, uint16(2*pageWords), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint64(0))
	f.Add(uint64(isa.DefaultDataBase+24), []byte{1}, uint16(2*pageWords), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint64(0xdead))
	f.Add(uint64(pageBytes-8), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint16(0), []byte{}, uint64(7))
	f.Add(uint64(pageBytes-8), []byte{}, uint16(1), []byte{0, 0, 0, 0, 0}, uint64(7))
	f.Add(^uint64(0)-7, []byte{}, uint16(1), []byte{0, 1}, uint64(0)) // wraps past the top
	f.Fuzz(func(t *testing.T, base uint64, head []byte, zeroWords uint16, tail []byte, prefill uint64) {
		base &^= isa.WordSize - 1
		data := slices.Concat(head, make([]byte, isa.WordSize*int(zeroWords%(4*pageWords))), tail)
		words := uint64(len(data)+isa.WordSize-1) / isa.WordSize
		got, want := NewMemory(), NewMemory()
		if prefill != 0 {
			for _, addr := range []uint64{base - 8, base, base + 8*(words/2), base + 8*words} {
				for _, m := range []*Memory{got, want} {
					if err := m.Store(addr, prefill); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := got.LoadImage(base, data); err != nil {
			t.Fatal(err)
		}
		if err := loadWordwise(want, base, data); err != nil {
			t.Fatal(err)
		}
		if g, w := got.Snapshot(), want.Snapshot(); !maps.Equal(g, w) {
			t.Fatalf("snapshot %v, want %v", g, w)
		}
		for i := uint64(0); i <= words+1; i++ {
			addr := base - 8 + 8*i
			g, err := got.Load(addr)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := want.Load(addr); g != w {
				t.Fatalf("word %#x = %#x, want %#x", addr, g, w)
			}
		}
		if got.Footprint() > want.Footprint() {
			t.Errorf("mapped %d pages, the reference only %d", got.Footprint(), want.Footprint())
		}
	})
}
