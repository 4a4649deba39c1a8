package table

import "unsafe"

// Retained returns the bytes s's stored rows hold — code buffers, RLE
// rows and the per-router entries — and its number of RLE routers, so
// the external retention test can weigh a scheme schemeio.ReadFile
// decoded.
func Retained(s *Scheme) (bytes, rleRows int) {
	bytes = len(s.rows) * int(unsafe.Sizeof(rowCode{}))
	for x := range s.rows {
		rc := &s.rows[x]
		bytes += cap(rc.code) + 4*cap(rc.rle)
		if rc.rle != nil {
			rleRows++
		}
	}
	return bytes, rleRows
}
