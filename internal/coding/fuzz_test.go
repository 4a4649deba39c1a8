package coding

import (
	"testing"
)

// Fuzz targets exercise the decoders on adversarial bitstreams: every
// parse must either round-trip or fail with an error — never panic, never
// loop. `go test` runs the seed corpus; `go test -fuzz=Fuzz...` explores.

func FuzzReadGamma(f *testing.F) {
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{0x00})
	f.Add([]byte{0b10101010, 0b01010101})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBitReader(data, len(data)*8)
		for r.Remaining() > 0 {
			if _, err := r.ReadGamma(); err != nil {
				return
			}
		}
	})
}

func FuzzReadPermutation(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56}, 4)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 1 || n > 12 {
			return
		}
		r := NewBitReader(data, len(data)*8)
		perm, err := r.ReadPermutation(n)
		if err != nil {
			return
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("decoder produced non-permutation %v", perm)
			}
			seen[v] = true
		}
	})
}
