package table

import "unsafe"

// Retained returns the bytes s's stripes hold — stripe entries, code
// buffers, offsets, field widths and RLE rows — and its number of RLE
// routers, so the external retention test can weigh a scheme from any
// producer. Offsets a stripe shares with its neighbour or with a
// container index are counted as its own.
func Retained(s *Scheme) (bytes, rleRows int) {
	bytes = 8 * len(s.stripes)
	for _, st := range s.stripes {
		bytes += int(unsafe.Sizeof(*st)) + cap(st.code) + 8*len(st.offs) + cap(st.wid) + 24*cap(st.rle)
		for _, row := range st.rle {
			if row != nil {
				rleRows++
				bytes += 4 * cap(row)
			}
		}
	}
	return bytes, rleRows
}
