package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteTo serializes g in a small line-oriented text format:
//
//	n m
//	u v        (one line per edge, in insertion-independent sorted order)
//
// Port labelings are NOT serialized by WriteTo/ReadFrom; the reader
// reconstructs ports by insertion order of the sorted edge list. Use
// WritePorted/ReadPorted when the port labeling itself is the payload
// (e.g. adversarially labeled instances).
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	if err := g.checkSerializable(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	var n int64
	k, err := fmt.Fprintf(bw, "%d %d\n", g.Order(), g.Size())
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, e := range g.Edges() {
		k, err = fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// checkSerializable rejects graphs carrying fault holes or removed
// vertices: neither text format has a representation for a dead port
// slot, and silently compacting the holes would change every surviving
// port label. Faulted topologies travel as a base graph plus a delta
// record (internal/schemeio), never as a re-serialized graph.
func (g *Graph) checkSerializable() error {
	if g.nRemoved > 0 {
		return fmt.Errorf("graph: cannot serialize: %d removed vertices (serialize the base graph and a fault delta instead)", g.nRemoved)
	}
	for u := range g.adj {
		for k, v := range g.adj[u] {
			if v == DeadEnd {
				return fmt.Errorf("graph: cannot serialize: dead port %d at vertex %d (serialize the base graph and a fault delta instead)", k+1, u)
			}
		}
	}
	return nil
}

// MaxSerializedOrder bounds the vertex count the readers accept. Both
// formats carry attacker-controlled sizes in their headers; without a
// cap, "1000000000 0" would commit gigabytes before the first real parse
// error. 2^22 vertices is far beyond every workload in this repository
// while keeping the worst-case header allocation around 200 MB.
const MaxSerializedOrder = 1 << 22

// checkOrder validates a deserialized vertex count. The readers must
// never panic or over-allocate on malformed bytes — they are the
// repository's only parsing boundary and are fuzzed as such.
func checkOrder(n int) error {
	if n < 0 {
		return fmt.Errorf("graph: negative order %d", n)
	}
	if n > MaxSerializedOrder {
		return fmt.Errorf("graph: order %d exceeds limit %d", n, MaxSerializedOrder)
	}
	return nil
}

// ReadFrom parses the format produced by WriteTo and returns the graph.
// Malformed input — bad counts, out-of-range endpoints, self-loops,
// duplicate edges — returns an error; it never panics.
func ReadFrom(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header: %w", err)
	}
	if err := checkOrder(n); err != nil {
		return nil, err
	}
	if m < 0 || int64(m) > int64(n)*int64(n-1)/2 {
		return nil, fmt.Errorf("graph: edge count %d impossible for order %d", m, n)
	}
	g := New(n)
	for i := 0; i < m; i++ {
		var u, v int
		if _, err := fmt.Fscan(br, &u, &v); err != nil {
			return nil, fmt.Errorf("graph: bad edge %d: %w", i, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge %d endpoint out of range: {%d,%d}", i, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("graph: edge %d is a self-loop at %d", i, u)
		}
		if g.HasEdge(NodeID(u), NodeID(v)) {
			return nil, fmt.Errorf("graph: duplicate edge %d: {%d,%d}", i, u, v)
		}
		g.AddEdge(NodeID(u), NodeID(v))
	}
	g.Freeze()
	return g, nil
}

// WritePorted serializes g including the exact port labeling:
//
//	n
//	deg v1 v2 ... vdeg      (one line per vertex; vk = Neighbor(u, k))
func (g *Graph) WritePorted(w io.Writer) error {
	if err := g.checkSerializable(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", g.Order()); err != nil {
		return err
	}
	for u := 0; u < g.Order(); u++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d", g.Degree(NodeID(u)))
		for _, v := range g.Arcs(NodeID(u)) {
			fmt.Fprintf(&sb, " %d", v)
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPorted parses the format produced by WritePorted, reconstructing the
// identical port labeling. It validates ranges while parsing and full
// port symmetry before returning; malformed bytes error, never panic.
func ReadPorted(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n int
	if _, err := fmt.Fscan(br, &n); err != nil {
		return nil, fmt.Errorf("graph: bad header: %w", err)
	}
	if err := checkOrder(n); err != nil {
		return nil, err
	}
	g := New(n)
	for u := 0; u < n; u++ {
		var d int
		if _, err := fmt.Fscan(br, &d); err != nil {
			return nil, fmt.Errorf("graph: bad degree for %d: %w", u, err)
		}
		if d < 0 || d >= n {
			return nil, fmt.Errorf("graph: degree %d of vertex %d impossible for order %d", d, u, n)
		}
		g.adj[u] = make([]NodeID, d)
		g.backPort[u] = make([]Port, d)
		for k := 0; k < d; k++ {
			var v int
			if _, err := fmt.Fscan(br, &v); err != nil {
				return nil, fmt.Errorf("graph: bad neighbor %d of %d: %w", k, u, err)
			}
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: neighbor %d of %d out of range: %d", k, u, v)
			}
			if v == u {
				return nil, fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			g.adj[u][k] = NodeID(v)
		}
	}
	// Reconstruct back ports and the edge count.
	edges := 0
	for u := 0; u < n; u++ {
		for k, v := range g.adj[u] {
			p := NoPort
			for j, w := range g.adj[v] {
				if w == NodeID(u) {
					p = Port(j + 1)
					break
				}
			}
			if p == NoPort {
				return nil, fmt.Errorf("graph: arc (%d,%d) has no reverse arc", u, v)
			}
			g.backPort[u][k] = p
			if NodeID(u) < v {
				edges++
			}
		}
	}
	g.edges = edges
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.Freeze()
	return g, nil
}
