// Package bpred implements the paper's branch predictor: a branch history
// table of 2-bit up/down saturating counters indexed by the branch PC
// (2048 entries in the paper's configuration). Unconditional branches and
// indirect jumps are assumed perfectly predicted (the paper models only the
// direction predictor).
package bpred

import "repro/internal/reuse"

// BHT is the branch history table.
type BHT struct {
	counters []uint8 // 0..3; taken when >= 2

	// Statistics.
	Lookups int64
	Correct int64
}

// DefaultEntries is the paper's table size.
const DefaultEntries = 2048

// New builds a table with the given number of entries (rounded up to a
// power of two). Counters start weakly not-taken.
func New(entries int) *BHT {
	b := new(BHT)
	b.Reset(entries)
	return b
}

// Reset makes b the table New(entries) builds, keeping its counters'
// storage when that covers the entries.
func (b *BHT) Reset(entries int) {
	if entries <= 0 {
		entries = DefaultEntries
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	c := reuse.Slice(b.counters, n)
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
	*b = BHT{counters: c}
}

func (b *BHT) index(pc int) int {
	return pc & (len(b.counters) - 1)
}

// Predict returns the predicted direction for the conditional branch at pc.
func (b *BHT) Predict(pc int) bool {
	return b.counters[b.index(pc)] >= 2
}

// Update trains the counter with the resolved outcome and records accuracy
// statistics. Call it once per executed conditional branch.
func (b *BHT) Update(pc int, taken bool) {
	i := b.index(pc)
	b.Lookups++
	if (b.counters[i] >= 2) == taken {
		b.Correct++
	}
	if taken {
		if b.counters[i] < 3 {
			b.counters[i]++
		}
	} else if b.counters[i] > 0 {
		b.counters[i]--
	}
}

// Accuracy returns the fraction of correct predictions so far (1 if no
// branches have resolved).
func (b *BHT) Accuracy() float64 {
	if b.Lookups == 0 {
		return 1
	}
	return float64(b.Correct) / float64(b.Lookups)
}
