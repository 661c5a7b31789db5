package mem

import "testing"

// FuzzParseDirectoryKind: whatever selection parses, its canonical
// spelling is a fixed point — it parses, to itself — and NewDirectory
// builds it.
func FuzzParseDirectoryKind(f *testing.F) {
	for _, s := range []string{
		"", "fullmap", "limited", "limited:4", "limited:04", "limited:+4",
		"limited:2", "limited:02", "limited:0", "limited:x", "fullmap:4", "coarse",
		"limited:9223372036854775807", "limited:9223372036854775808",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		canon, err := ParseDirectoryKind(s)
		if err != nil {
			return
		}
		if again, err := ParseDirectoryKind(canon); err != nil || again != canon {
			t.Fatalf("ParseDirectoryKind(%q) = %q, which reparses as %q, %v", s, canon, again, err)
		}
		// Zero sets: a fuzzed pointer budget can be far too large to
		// allocate, and acceptance does not depend on the set count.
		if _, err := NewDirectory(canon, 0, 2); err != nil {
			t.Fatalf("NewDirectory(%q): %v", canon, err)
		}
	})
}
