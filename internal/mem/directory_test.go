package mem

import "testing"

// FuzzParseDirectoryKind: whatever selection parses, its canonical
// spelling is a fixed point — it parses, to itself — and NewDirectory
// builds it over a real set count.
func FuzzParseDirectoryKind(f *testing.F) {
	for _, s := range []string{
		"", "fullmap", "limited", "limited:4", "limited:04", "limited:+4",
		"limited:2", "limited:02", "limited:0", "limited:x", "fullmap:4", "coarse",
		"limited:255", "limited:256", "limited:300", "limited:1000000000",
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
		if _, err := NewDirectory(canon, 1024, 2); err != nil {
			t.Fatalf("NewDirectory(%q): %v", canon, err)
		}
	})
}

// limitedDir counts a set's pointers in a uint8, so the pointer budget
// stops at 255: past it, a line's 256th sharer would wrap the count to
// zero and the next store would skip its invalidations.
func TestLimitedPointerBudget(t *testing.T) {
	if got, err := ParseDirectoryKind("limited:255"); err != nil || got != "limited:255" {
		t.Errorf(`ParseDirectoryKind("limited:255") = %q, %v`, got, err)
	}
	for _, kind := range []string{"limited:256", "limited:300", "limited:1000000000", "limited:9223372036854775807"} {
		if got, err := ParseDirectoryKind(kind); err == nil {
			t.Errorf("ParseDirectoryKind(%q) = %q, want an error", kind, got)
		}
		if _, err := NewDirectory(kind, 1024, 2); err == nil {
			t.Errorf("NewDirectory(%q) built a directory", kind)
		}
	}

	const cores = 300
	d, err := NewDirectory("limited:255", 4, cores)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 255; c++ {
		if d.AddSharer(1, c) {
			t.Fatalf("sharer %d overflowed 255 pointers", c+1)
		}
	}
	if sh, broadcast := d.AppendSharers(1, -1, nil); broadcast || len(sh) != 255 {
		t.Fatalf("255 sharers: %d tracked, broadcast %v", len(sh), broadcast)
	}
	if !d.AddSharer(1, 255) {
		t.Fatal("the 256th sharer did not switch the set to broadcast")
	}
	if !d.OtherSharers(1, 0) {
		t.Error("a broadcast set reports no other sharers")
	}
	if sh, broadcast := d.AppendSharers(1, 0, nil); !broadcast || len(sh) != cores-1 {
		t.Errorf("broadcast round visits %d cores (broadcast %v), want %d", len(sh), broadcast, cores-1)
	}
}
