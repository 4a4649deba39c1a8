package a

import (
	"encoding/binary"
	"errors"
)

// parseSectionUnguarded sizes arrays from fixed-width little-endian
// words without a bound: a crafted order commits gigabytes, and a
// crafted offset indexes out of range.
func parseSectionUnguarded(b []byte) ([]int32, error) {
	if len(b) < 8 {
		return nil, errors.New("short")
	}
	n := binary.LittleEndian.Uint64(b)
	deg := make([]int32, n) // want `wire-read count "n" reaches make`
	off := int(binary.BigEndian.Uint32(b[4:]))
	_ = b[off:] // want `wire-read count "off" reaches slicing`
	return deg, nil
}

// parseSectionByteOrder reads through the ByteOrder interface, which is
// the same wire source.
func parseSectionByteOrder(order binary.ByteOrder, b []byte, table []int) (int, error) {
	if len(b) < 2 {
		return 0, errors.New("short")
	}
	i := order.Uint16(b)
	return table[i], nil // want `wire-read count "i" reaches slice indexing`
}

// parseSectionGuarded is the conforming shape: the order and every
// degree are compared unsigned before they size or index anything.
func parseSectionGuarded(b []byte) ([]int32, error) {
	if len(b) < 8 {
		return nil, errors.New("short")
	}
	n := binary.LittleEndian.Uint64(b)
	if n > maxCount || uint64(len(b)) < 8+4*n {
		return nil, errors.New("order too large for the section")
	}
	deg := make([]int32, n)
	for u := range deg {
		d := binary.LittleEndian.Uint32(b[8+4*u:])
		if uint64(d) >= n {
			return nil, errors.New("degree too large")
		}
		deg[u] = int32(d)
	}
	return deg, nil
}

// words has a Uint32 method of its own: only encoding/binary's byte
// orders are wire sources.
type words []uint32

func (w words) Uint32(i int) uint32 { return w[i] }

// parseLocalWords sizes with a non-wire Uint32 and is not flagged.
func parseLocalWords(w words) []byte {
	n := w.Uint32(0)
	return make([]byte, n)
}
