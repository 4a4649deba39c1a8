package table

import (
	"testing"

	"repro/internal/coding"
	"repro/internal/graph"
)

// FuzzDecodeRow feeds adversarial byte strings to DecodeRowFrom, the row
// decoder of the wire payload and of a generation patch: it must return
// a row or an error, never panic or loop, and any successful parse must
// hold NoPort at x and an in-range port at every other destination.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x34}, 8, 1, 3)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 12, 0, 4)
	f.Add([]byte{0x80, 0x01}, 5, 2, 2)
	f.Fuzz(func(t *testing.T, data []byte, n, x, deg int) {
		if n < 2 || n > 64 || deg < 1 || deg > 16 || x < 0 || x >= n {
			return
		}
		row, err := DecodeRowFrom(coding.NewBitReader(data, len(data)*8), n, graph.NodeID(x), deg)
		if err != nil {
			return
		}
		for v, p := range row {
			if v == x {
				if p != graph.NoPort {
					t.Fatalf("own entry must be NoPort, got %d", p)
				}
				continue
			}
			if p < 1 || int(p) > deg {
				t.Fatalf("decoded port %d out of [1,%d] at %d", p, deg, v)
			}
		}
	})
}
