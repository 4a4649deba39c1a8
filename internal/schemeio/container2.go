package schemeio

// Container format v2 (magic "RSF3"): the scheme file container, a
// random-access structure — a fixed-width section directory up front,
// every section starting on an 8-byte boundary, and a fixed-width
// per-router payload offset index — so a reader can map the file,
// validate the directory and index in O(index) work, and locate any
// router's serialized span without decoding anything before it. It is
// the only container. Its magic names the section encoding: "RSF2"
// files, whose GRAPH section was decimal text, and the earlier v1
// stream ("RSF1") are no longer read or written, and their magics fail
// like any other.
//
//	offset 0   magic "RSF3" (4 bytes)
//	offset 4   u32 section count (always 3)
//	offset 8   3 x 24-byte directory entries, in file order:
//	             u64 offset, u64 length, u32 type, u32 crc32c(section)
//	offset 80  u32 crc32c of bytes [0, 80), u32 zero
//	offset 88  sections: GRAPH, SCHEME, INDEX — each starting at the
//	           next 8-byte boundary after its predecessor, gaps zero,
//	           file ending exactly at the last section's end
//
// GRAPH is the graph with its exact port labeling, as its CSR arena
// (buildGraphSection): u64 order n, u32 deg[n], u32 nbr[arcs], u32
// back[arcs]. SCHEME is the scheme blob (Encode — wire header +
// payload, byte-padded), and INDEX the random-access metadata: u64
// router count n, u64 exact payload bit length, then n+1 u64 absolute
// bit offsets — router x's serialized span is bits [offs[x], offs[x+1])
// of the SCHEME section (Encoded.RouterOffs, persisted).
//
// The layout is canonical: section order, alignment padding, the
// graph's back ports and index contents are all forced, so for every
// (graph, scheme) pair there is exactly one valid byte string and every
// accepted file re-encodes byte-identically — the same no-aliasing
// discipline Decode enforces on scheme blobs. Integers are fixed-width
// little-endian; checksums are CRC32-Castagnoli.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Section types of the v2 directory. Part of the persisted format:
// never renumber, only append.
const (
	secGraph  = 1
	secScheme = 2
	secIndex  = 3
)

// fileMagic opens a container file.
var fileMagic = [4]byte{'R', 'S', 'F', '3'}

// v2DirSize is the byte length of the fixed header + directory: magic,
// section count, three 24-byte entries, directory CRC + zero pad. The
// first section starts here, which is 8-byte aligned by construction.
const v2DirSize = 4 + 4 + 3*24 + 8

// MaxFileSection caps each section of a scheme file. Section lengths
// are attacker-controlled; without the cap a crafted directory could
// demand a multi-gigabyte allocation before the first parse error.
const MaxFileSection = 1 << 28

// maxV2FileSize bounds a whole v2 container: three cap-checked sections
// plus directory and alignment slack. ReadFile reads at most this many
// bytes from its stream, and OpenMapped refuses larger files.
const maxV2FileSize = v2DirSize + 3*(MaxFileSection+8)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// align8 rounds up to the next multiple of 8.
func align8(off int64) int64 { return (off + 7) &^ 7 }

// v2Layout is the validated section directory of one container.
type v2Layout struct {
	graphOff, schemeOff, indexOff int64
	graphLen, schemeLen, indexLen int64
	graphCRC, schemeCRC, indexCRC uint32
}

// buildIndexSection serializes the INDEX section for one encoded
// scheme: router count, exact payload bit length, and the n+1 span
// offsets.
func buildIndexSection(enc *Encoded) []byte {
	n := len(enc.RouterBits)
	b := make([]byte, 8*(n+3))
	binary.LittleEndian.PutUint64(b[0:], uint64(n))
	binary.LittleEndian.PutUint64(b[8:], uint64(enc.PayloadBits))
	for i, off := range enc.RouterOffs {
		binary.LittleEndian.PutUint64(b[16+8*i:], uint64(off))
	}
	return b
}

// parseIndexSection validates and decodes an INDEX section against the
// byte length of the SCHEME section it indexes into. Every constraint a
// later lazy reader relies on is enforced here: the declared router
// count respects the wire cap, the payload bit length matches the
// scheme section's padded byte length exactly, and the offsets are
// monotone inside the payload.
func parseIndexSection(b []byte, schemeLen int64) (offs []uint64, payloadBits int, err error) {
	if len(b) < 24 || len(b)%8 != 0 {
		return nil, 0, fmt.Errorf("schemeio: index section of %d bytes is malformed", len(b))
	}
	n := binary.LittleEndian.Uint64(b[0:])
	if n > coding.MaxWireOrder {
		return nil, 0, fmt.Errorf("schemeio: index declares %d routers, exceeding limit %d", n, coding.MaxWireOrder)
	}
	if int64(len(b)) != 8*(int64(n)+3) {
		return nil, 0, fmt.Errorf("schemeio: index section is %d bytes, want %d for %d routers", len(b), 8*(int64(n)+3), n)
	}
	pb := binary.LittleEndian.Uint64(b[8:])
	// The scheme section is the payload zero-padded to a byte boundary,
	// so the bit length pins the byte length exactly — a looser bound
	// would let two files alias one scheme.
	if schemeLen < 1 || pb > uint64(schemeLen)*8 || pb <= uint64(schemeLen-1)*8 {
		return nil, 0, fmt.Errorf("schemeio: payload of %d bits does not fill a %d-byte scheme section", pb, schemeLen)
	}
	offs = make([]uint64, n+1)
	prev := uint64(0)
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint64(b[16+8*i:])
		if offs[i] < prev {
			return nil, 0, fmt.Errorf("schemeio: index offset %d decreases (%d after %d)", i, offs[i], prev)
		}
		prev = offs[i]
	}
	if prev > pb {
		return nil, 0, fmt.Errorf("schemeio: index offset %d lies past payload end %d", prev, pb)
	}
	return offs, int(pb), nil
}

// buildGraphSection serializes the GRAPH section: the exact port
// labeling as the graph's CSR arena in fixed-width little-endian words —
// u64 order n, u32 deg[n], then u32 nbr[arcs] and u32 back[arcs], rows
// in vertex order (arcs = Σ deg). A graph with fault holes or removed
// vertices is refused: a dead port slot has no encoding, and compacting
// the holes would change every surviving port label. Faulted topologies
// travel as a base container plus a delta record.
func buildGraphSection(g *graph.Graph) ([]byte, error) {
	n := g.Order()
	if removed := n - g.LiveOrder(); removed > 0 {
		return nil, fmt.Errorf("schemeio: cannot save a graph with %d removed vertices (save the base graph and a fault delta instead)", removed)
	}
	arcs := 0
	for u := 0; u < n; u++ {
		arcs += g.Degree(graph.NodeID(u))
	}
	b := make([]byte, 8+4*n+8*arcs)
	binary.LittleEndian.PutUint64(b, uint64(n))
	nbr, back := b[8+4*n:], b[8+4*n+4*arcs:]
	i := 0
	for u := 0; u < n; u++ {
		row, bp := g.Arcs(graph.NodeID(u)), g.BackPorts(graph.NodeID(u))
		binary.LittleEndian.PutUint32(b[8+4*u:], uint32(len(row)))
		for k, v := range row {
			if v == graph.DeadEnd {
				return nil, fmt.Errorf("schemeio: cannot save a graph with dead port %d at vertex %d (save the base graph and a fault delta instead)", k+1, u)
			}
			binary.LittleEndian.PutUint32(nbr[4*i:], uint32(v))
			binary.LittleEndian.PutUint32(back[4*i:], uint32(bp[k]))
			i++
		}
	}
	return b, nil
}

// decodeGraphSection is buildGraphSection's inverse. Every size check
// runs on the unsigned wire values before anything is allocated: the
// order cap, each degree below n, and the section length, which must be
// exactly the one the degrees imply. The arrays are fresh copies — the
// graph never aliases the container bytes, so a mapped file replaced on
// disk cannot change it — and graph.FromCSR checks them in one pass
// (range, self-loops, duplicates, back-port symmetry). Back ports are
// redundant with the adjacency, so that check also keeps the section
// canonical: an accepted section re-encodes to the same bytes.
func decodeGraphSection(b []byte) (*graph.Graph, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("schemeio: graph section of %d bytes is shorter than its order", len(b))
	}
	n := binary.LittleEndian.Uint64(b)
	if n > graph.MaxSerializedOrder {
		return nil, fmt.Errorf("schemeio: graph order %d exceeds limit %d", n, graph.MaxSerializedOrder)
	}
	if uint64(len(b)) < 8+4*n {
		return nil, fmt.Errorf("schemeio: graph section of %d bytes cannot hold %d degrees", len(b), n)
	}
	deg := make([]int32, n)
	arcs := uint64(0)
	for u := range deg {
		d := binary.LittleEndian.Uint32(b[8+4*u:])
		if uint64(d) >= n {
			return nil, fmt.Errorf("schemeio: degree %d of vertex %d impossible for order %d", d, u, n)
		}
		deg[u] = int32(d)
		arcs += uint64(d)
	}
	if want := 8 + 4*n + 8*arcs; uint64(len(b)) != want {
		return nil, fmt.Errorf("schemeio: graph section is %d bytes, want %d for %d vertices and %d arcs", len(b), want, n, arcs)
	}
	// Endpoints and back ports at or past 2^31 wrap negative here;
	// FromCSR's Validate rejects every negative or out-of-range value.
	nbr := make([]graph.NodeID, arcs)
	back := make([]graph.Port, arcs)
	nb, bb := b[8+4*n:], b[8+4*n+4*arcs:]
	for i := range nbr {
		nbr[i] = graph.NodeID(binary.LittleEndian.Uint32(nb[4*i:]))
		back[i] = graph.Port(binary.LittleEndian.Uint32(bb[4*i:]))
	}
	g, err := graph.FromCSR(deg, nbr, back)
	if err != nil {
		return nil, fmt.Errorf("schemeio: graph section: %w", err)
	}
	return g, nil
}

// parseV2Directory validates the fixed header + directory (the first
// v2DirSize bytes, or the whole file when it is shorter) against the
// total file size. The magic is checked first, so any non-v2 file fails
// as a bad magic. Offsets, order and alignment are all forced to the
// single canonical layout.
func parseV2Directory(hdr []byte, fileSize int64) (v2Layout, error) {
	var l v2Layout
	if len(hdr) < len(fileMagic) || [4]byte(hdr[:4]) != fileMagic {
		return l, fmt.Errorf("schemeio: bad file magic %q", hdr[:min(len(hdr), len(fileMagic))])
	}
	if len(hdr) < v2DirSize {
		return l, fmt.Errorf("schemeio: v2 container of %d bytes is shorter than its %d-byte directory", len(hdr), v2DirSize)
	}
	if count := binary.LittleEndian.Uint32(hdr[4:]); count != 3 {
		return l, fmt.Errorf("schemeio: v2 directory declares %d sections, want 3", count)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[80:84]), crc32.Checksum(hdr[:80], castagnoli); got != want {
		return l, fmt.Errorf("schemeio: v2 directory checksum %#x, computed %#x", got, want)
	}
	if pad := binary.LittleEndian.Uint32(hdr[84:88]); pad != 0 {
		return l, fmt.Errorf("schemeio: nonzero directory padding %#x", pad)
	}
	type entry struct {
		off, length int64
		typ         uint32
		crc         uint32
	}
	var es [3]entry
	for i := range es {
		e := hdr[8+24*i:]
		off := binary.LittleEndian.Uint64(e[0:])
		length := binary.LittleEndian.Uint64(e[8:])
		if length > MaxFileSection {
			return l, fmt.Errorf("schemeio: section %d of %d bytes exceeds limit %d", i, length, MaxFileSection)
		}
		if off > uint64(maxV2FileSize) {
			return l, fmt.Errorf("schemeio: section %d offset %d is absurd", i, off)
		}
		es[i] = entry{off: int64(off), length: int64(length), typ: binary.LittleEndian.Uint32(e[16:]), crc: binary.LittleEndian.Uint32(e[20:])}
	}
	if es[0].typ != secGraph || es[1].typ != secScheme || es[2].typ != secIndex {
		return l, fmt.Errorf("schemeio: v2 section types %d,%d,%d, want graph,scheme,index", es[0].typ, es[1].typ, es[2].typ)
	}
	// Canonical placement: each section at the first aligned offset
	// after its predecessor, file ending exactly at the last byte.
	if es[0].off != v2DirSize {
		return l, fmt.Errorf("schemeio: graph section at %d, want %d", es[0].off, v2DirSize)
	}
	if want := align8(es[0].off + es[0].length); es[1].off != want {
		return l, fmt.Errorf("schemeio: scheme section at %d, want aligned %d", es[1].off, want)
	}
	if want := align8(es[1].off + es[1].length); es[2].off != want {
		return l, fmt.Errorf("schemeio: index section at %d, want aligned %d", es[2].off, want)
	}
	if end := es[2].off + es[2].length; end != fileSize {
		return l, fmt.Errorf("schemeio: file is %d bytes, sections end at %d", fileSize, end)
	}
	l.graphOff, l.graphLen, l.graphCRC = es[0].off, es[0].length, es[0].crc
	l.schemeOff, l.schemeLen, l.schemeCRC = es[1].off, es[1].length, es[1].crc
	l.indexOff, l.indexLen, l.indexCRC = es[2].off, es[2].length, es[2].crc
	return l, nil
}

// appendV2 assembles the canonical v2 container for one encoded scheme.
func appendV2(gb, sb, ib []byte) ([]byte, error) {
	for what, b := range map[string][]byte{"graph": gb, "scheme": sb, "index": ib} {
		if int64(len(b)) > MaxFileSection {
			return nil, fmt.Errorf("schemeio: %s section of %d bytes exceeds limit %d", what, len(b), MaxFileSection)
		}
	}
	graphOff := int64(v2DirSize)
	schemeOff := align8(graphOff + int64(len(gb)))
	indexOff := align8(schemeOff + int64(len(sb)))
	total := indexOff + int64(len(ib))
	out := make([]byte, total)
	copy(out[:4], fileMagic[:])
	binary.LittleEndian.PutUint32(out[4:], 3)
	writeEntry := func(i int, off int64, b []byte, typ uint32) {
		e := out[8+24*i:]
		binary.LittleEndian.PutUint64(e[0:], uint64(off))
		binary.LittleEndian.PutUint64(e[8:], uint64(len(b)))
		binary.LittleEndian.PutUint32(e[16:], typ)
		binary.LittleEndian.PutUint32(e[20:], crc32.Checksum(b, castagnoli))
		copy(out[off:], b)
	}
	writeEntry(0, graphOff, gb, secGraph)
	writeEntry(1, schemeOff, sb, secScheme)
	writeEntry(2, indexOff, ib, secIndex)
	binary.LittleEndian.PutUint32(out[80:], crc32.Checksum(out[:80], castagnoli))
	return out, nil
}

// WriteFileV2 frames g (its CSR arena, exact labeling) and s (Encode)
// into one v2 container stream. A graph with fault holes is refused.
func WriteFileV2(w io.Writer, g *graph.Graph, s routing.Scheme) error {
	enc, err := Encode(g, s)
	if err != nil {
		return err
	}
	return WriteFileV2Encoded(w, g, enc)
}

// WriteFileV2Encoded is WriteFileV2 for a caller already holding the
// encoded blob, so the scheme is never serialized twice.
func WriteFileV2Encoded(w io.Writer, g *graph.Graph, enc *Encoded) error {
	gb, err := buildGraphSection(g)
	if err != nil {
		return err
	}
	out, err := appendV2(gb, enc.Bytes, buildIndexSection(enc))
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// ReadFile parses a stream written by WriteFileV2, returning the graph
// and the fully decoded heap scheme bound to it (a *table.Scheme for
// tables, never a lazy view). It is the mapped parse over the bytes in
// memory followed by one full decode, so heap and mapped readers share
// every container check. Malformed files error without panicking, and
// at most maxV2FileSize bytes are read.
func ReadFile(r io.Reader) (*graph.Graph, routing.Scheme, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxV2FileSize+1))
	if err != nil {
		return nil, nil, fmt.Errorf("schemeio: read container: %w", err)
	}
	if int64(len(data)) > maxV2FileSize {
		return nil, nil, fmt.Errorf("schemeio: container exceeds %d bytes", maxV2FileSize)
	}
	m, err := parseContainer(&byteBacking{data: data}, int64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	s, err := m.decodeScheme()
	if err != nil {
		return nil, nil, err
	}
	return m.g, s, nil
}
