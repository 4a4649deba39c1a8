package coding

import (
	"strings"
	"testing"
)

// TestReadBitsWidthError pins the wiresafe fix: an out-of-range width
// is an error return, not a panic. Decode paths hand attacker-derived
// widths to ReadBits (e.g. BitsFor of a wire-read order), so a panic
// here is a remote crash.
func TestReadBitsWidthError(t *testing.T) {
	r := NewBitReader([]byte{0xff, 0xff}, 16)
	for _, width := range []int{-1, 65, 1 << 20} {
		if _, err := r.ReadBits(width); err == nil {
			t.Errorf("ReadBits(%d) = nil error, want out-of-range error", width)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ReadBits(%d) error = %q, want out-of-range", width, err)
		}
	}
	// The reader must still be usable after a rejected width.
	v, err := r.ReadBits(8)
	if err != nil || v != 0xff {
		t.Fatalf("ReadBits(8) after rejected widths = %#x, %v; want 0xff, nil", v, err)
	}
}
