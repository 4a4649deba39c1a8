// Fuzzing for the graph side of the read boundary. A scheme container's
// GRAPH section (internal/schemeio) is decoded into three arrays and
// handed to FromCSR, whose Validate is the last check between untrusted
// bytes and every router; the contract is absolute — a malformed arena
// errors, never panics, and anything accepted is a frozen, Validate-clean
// graph. Both targets read their input as a stream of signed varints
// (encoding/binary's Varint), so a small value costs one byte and the
// fuzzer reaches FromCSR's and Validate's branches far more densely than
// through the container's fixed-width words, while negative and
// oversized values stay expressible:
//
//   - FuzzReadPorted reads an explicit port labeling — the order, then
//     per vertex its degree and a (neighbor, back port) pair per arc —
//     and checks that whatever FromCSR accepts re-encodes stably.
//   - FuzzReadFrom reads an edge list — the order, the edge count, then
//     the endpoint pairs — lays it out with ports in list order, and
//     checks FromCSR against the mutable builder: an accepted arena is
//     exactly what New, AddEdge and Freeze make of the same list, and a
//     rejected one holds a self-loop or duplicate AddEdge would refuse.
//
// The seed corpus mixes encodings of valid graphs with the malformed
// shapes the readers must reject (truncation, varint overflow, range
// violations, self-loops, duplicate edges, absurd counts).
package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// fuzzSeedGraphs builds a few small graphs covering the corpus shapes:
// a path, a triangle with a pendant, and a star.
func fuzzSeedGraphs() []*Graph {
	path := New(4)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	path.AddEdge(2, 3)
	tri := New(4)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	tri.AddEdge(2, 3)
	star := New(5)
	for v := NodeID(1); v < 5; v++ {
		star.AddEdge(0, v)
	}
	return []*Graph{New(0), New(1), path, tri, star}
}

// varints encodes vals as the fuzz targets' input stream.
func varints(vals ...int64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// overflowVarint is a ten-byte varint whose last byte carries bits past
// 64, which Varint rejects as overflow.
var overflowVarint = append(bytes.Repeat([]byte{0xff}, 9), 0x02)

var errTruncated = errors.New("truncated input")

// varintReader consumes a varint stream front to back.
type varintReader []byte

func (r *varintReader) next() (int64, error) {
	v, k := binary.Varint(*r)
	if k == 0 {
		return 0, errTruncated
	}
	if k < 0 {
		return 0, errors.New("varint overflows 64 bits")
	}
	*r = (*r)[k:]
	return v, nil
}

// int32 reads one value that must fit the arena's 32-bit words; the
// sign is left for FromCSR to judge.
func (r *varintReader) int32() (int32, error) {
	v, err := r.next()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("value %d does not fit 32 bits", v)
	}
	return int32(v), nil
}

// count reads a size in [0, limit].
func (r *varintReader) count(limit int) (int, error) {
	v, err := r.next()
	if err != nil {
		return 0, err
	}
	if v < 0 || v > int64(limit) {
		return 0, fmt.Errorf("count %d outside [0, %d]", v, limit)
	}
	return int(v), nil
}

// readPorted decodes FuzzReadPorted's stream into FromCSR's arrays. It
// rejects only what it cannot lay out (truncation, overflow, an order
// outside [0, MaxSerializedOrder]); every degree, neighbor and back port
// passes through unchecked.
func readPorted(data []byte) (deg []int32, nbr []NodeID, back []Port, err error) {
	r := varintReader(data)
	n, err := r.count(MaxSerializedOrder)
	if err != nil {
		return nil, nil, nil, err
	}
	if n > len(r) {
		return nil, nil, nil, errTruncated // every row needs its degree
	}
	deg = make([]int32, n)
	for u := range deg {
		if deg[u], err = r.int32(); err != nil {
			return nil, nil, nil, err
		}
		if int(deg[u]) > len(r)/2 {
			return nil, nil, nil, errTruncated
		}
		for range max(deg[u], 0) {
			v, err := r.int32()
			if err != nil {
				return nil, nil, nil, err
			}
			p, err := r.int32()
			if err != nil {
				return nil, nil, nil, err
			}
			nbr, back = append(nbr, v), append(back, p)
		}
	}
	if len(r) != 0 {
		return nil, nil, nil, fmt.Errorf("%d trailing bytes", len(r))
	}
	return deg, nbr, back, nil
}

// writePorted encodes g's port labeling in FuzzReadPorted's stream.
func writePorted(g *Graph) []byte {
	vals := []int64{int64(g.Order())}
	for u := range g.Order() {
		vals = append(vals, int64(g.Degree(NodeID(u))))
		for k, v := range g.Arcs(NodeID(u)) {
			vals = append(vals, int64(v), int64(g.BackPorts(NodeID(u))[k]))
		}
	}
	return varints(vals...)
}

// readFrom decodes FuzzReadFrom's stream: an order, an edge count and
// that many endpoint pairs, each endpoint inside [0, n). Self-loops and
// duplicates pass through for FromCSR to reject.
func readFrom(data []byte) (n int, edges [][2]NodeID, err error) {
	r := varintReader(data)
	if n, err = r.count(MaxSerializedOrder); err != nil {
		return 0, nil, err
	}
	m, err := r.count(math.MaxInt32 / 2)
	if err != nil {
		return 0, nil, err
	}
	if m > len(r)/2 {
		return 0, nil, errTruncated // every edge needs two endpoint bytes
	}
	edges = make([][2]NodeID, m)
	for i := range edges {
		for j := range 2 {
			x, err := r.next()
			if err != nil {
				return 0, nil, err
			}
			if x < 0 || x >= int64(n) {
				return 0, nil, fmt.Errorf("endpoint %d outside [0, %d)", x, n)
			}
			edges[i][j] = NodeID(x)
		}
	}
	if len(r) != 0 {
		return 0, nil, fmt.Errorf("%d trailing bytes", len(r))
	}
	return n, edges, nil
}

// writeFrom encodes an edge list in FuzzReadFrom's stream.
func writeFrom(n int, edges [][2]NodeID) []byte {
	vals := []int64{int64(n), int64(len(edges))}
	for _, e := range edges {
		vals = append(vals, int64(e[0]), int64(e[1]))
	}
	return varints(vals...)
}

// edgeListCSR lays edges out as a CSR arena, each vertex's ports in list
// order — the labeling AddEdge gives the same list. A self-loop becomes
// two adjacent arcs of one row naming each other.
func edgeListCSR(n int, edges [][2]NodeID) (deg []int32, nbr []NodeID, back []Port) {
	deg = make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	off := make([]int, n+1)
	for u, d := range deg {
		off[u+1] = off[u] + int(d)
	}
	next := slices.Clone(off[:n])
	nbr = make([]NodeID, 2*len(edges))
	back = make([]Port, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		iu := next[u]
		next[u]++
		iv := next[v]
		next[v]++
		nbr[iu], nbr[iv] = v, u
		back[iu] = Port(iv - off[v] + 1)
		back[iv] = Port(iu - off[u] + 1)
	}
	return deg, nbr, back
}

func FuzzReadFrom(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		f.Add(writeFrom(g.Order(), g.Edges()))
	}
	for _, bad := range [][]byte{
		{},
		varints(1),
		varints(-1, 0),
		varints(2, -1),
		varints(2, 9),
		varints(1000000000, 0),
		varints(2, 1, 0, 0),       // self-loop
		varints(2, 1, 0, 5),       // endpoint out of range
		varints(3, 2, 0, 1, 0, 1), // duplicate edge
		varints(3, 3, 0, 1, 1, 2), // truncated edge list
		append(varints(4, 2, 0, 1), overflowVarint...),
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, err := readFrom(data)
		if err != nil {
			return // rejection is the expected outcome for junk
		}
		g, err := FromCSR(edgeListCSR(n, edges))
		// The mutable builder is the oracle: AddEdge panics on exactly
		// the self-loops and duplicates FromCSR must reject.
		want := New(n)
		simple := true
		for _, e := range edges {
			if e[0] == e[1] || want.HasEdge(e[0], e[1]) {
				simple = false
				break
			}
			want.AddEdge(e[0], e[1])
		}
		if !simple {
			if err == nil {
				t.Fatalf("FromCSR accepted an edge list with a self-loop or duplicate: %v", edges)
			}
			return
		}
		if err != nil {
			t.Fatalf("FromCSR rejected a simple edge list: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		want.Freeze()
		if !g.Frozen() || g.Order() != want.Order() || g.Size() != want.Size() {
			t.Fatalf("FromCSR: frozen=%v order %d size %d, want frozen order %d size %d", g.Frozen(), g.Order(), g.Size(), want.Order(), want.Size())
		}
		for u := range NodeID(n) {
			if !slices.Equal(g.Arcs(u), want.Arcs(u)) || !slices.Equal(g.BackPorts(u), want.BackPorts(u)) {
				t.Fatalf("vertex %d: FromCSR arena differs from AddEdge+Freeze", u)
			}
		}
		// Round-trip stability: the sorted edge list re-reads to the
		// same edge set and re-encodes to identical bytes.
		first := writeFrom(n, g.Edges())
		n2, edges2, err := readFrom(first)
		if err != nil {
			t.Fatalf("re-read of encoded graph: %v", err)
		}
		g2, err := FromCSR(edgeListCSR(n2, edges2))
		if err != nil {
			t.Fatalf("FromCSR of re-read graph: %v", err)
		}
		if g2.Order() != g.Order() || g2.Size() != g.Size() || !reflect.DeepEqual(g2.Edges(), g.Edges()) {
			t.Fatal("round trip changed the graph")
		}
		if second := writeFrom(n2, g2.Edges()); !bytes.Equal(second, first) {
			t.Fatalf("encoding unstable:\n%x\nvs\n%x", first, second)
		}
	})
}

func FuzzReadPorted(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		f.Add(writePorted(g))
	}
	for _, bad := range [][]byte{
		{},
		varints(-3),
		varints(1000000000),
		varints(2, 1, 0, 1, 1, 0, 1), // self-loop
		varints(2, 5, 0, 1, 1, 0, 1), // impossible degree
		varints(2, 1, 7, 1, 1, 0, 1), // neighbor out of range
		varints(2, 1, 1, 1, 0),       // asymmetric: 0->1 with no reverse arc
		varints(3, 2, 1, 1, 1, 1, 1, 0, 1, 1, 0, 2), // duplicate neighbor
		varints(2, 1, 1), // truncated
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		deg, nbr, back, err := readPorted(data)
		if err != nil {
			return
		}
		g, err := FromCSR(deg, nbr, back)
		if err != nil {
			return
		}
		if !g.Frozen() {
			t.Fatal("FromCSR returned a graph that is not frozen")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		// The exact port labeling must survive: the bytes are stable
		// after one normalization pass (varints admit padded encodings).
		first := writePorted(g)
		deg, nbr, back, err = readPorted(first)
		if err != nil {
			t.Fatalf("re-read of encoded graph: %v", err)
		}
		g2, err := FromCSR(deg, nbr, back)
		if err != nil {
			t.Fatalf("FromCSR of re-read graph: %v", err)
		}
		if second := writePorted(g2); !bytes.Equal(second, first) {
			t.Fatalf("ported encoding unstable:\n%x\nvs\n%x", first, second)
		}
	})
}
