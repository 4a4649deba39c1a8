package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOTBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, DOTOptions{Name: "demo", ShowPorts: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"graph demo {", "n0 -- n1", "taillabel", "}"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("DOT output missing %q:\n%s", frag, out)
		}
	}
	// Each edge appears exactly once.
	if strings.Count(out, " -- ") != 2 {
		t.Fatalf("expected 2 edges in DOT, got %d", strings.Count(out, " -- "))
	}
}

func TestWriteDOTCustomLabels(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	err := g.WriteDOT(&buf, DOTOptions{
		NodeLabel: func(u NodeID) string { return "v" },
		NodeAttr:  func(u NodeID) string { return "shape=box" },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `label="v", shape=box`) {
		t.Fatalf("custom label/attr not rendered:\n%s", buf.String())
	}
}

// TestWriteDOTSkipsRemovedEdge pins the drawing of a faulted graph: the
// hole a removed edge leaves is not drawn, every surviving edge is drawn
// once, and the port labels are the stable ones (port numbers do not
// shift when an earlier port dies).
func TestWriteDOTSkipsRemovedEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.RemoveEdge(0, 1)
	head := "graph G {\n  node [shape=circle];\n" +
		"  n0 [label=\"0\"];\n  n1 [label=\"1\"];\n  n2 [label=\"2\"];\n  n3 [label=\"3\"];\n"
	for _, c := range []struct {
		showPorts bool
		edges     string
	}{
		{false, "  n0 -- n2;\n  n1 -- n2;\n  n2 -- n3;\n"},
		{true, "  n0 -- n2 [taillabel=\"2\", headlabel=\"2\"];\n" +
			"  n1 -- n2 [taillabel=\"2\", headlabel=\"1\"];\n" +
			"  n2 -- n3 [taillabel=\"3\", headlabel=\"1\"];\n"},
	} {
		var buf bytes.Buffer
		if err := g.WriteDOT(&buf, DOTOptions{ShowPorts: c.showPorts}); err != nil {
			t.Fatal(err)
		}
		if want := head + c.edges + "}\n"; buf.String() != want {
			t.Fatalf("ShowPorts=%v:\n%s\nwant:\n%s", c.showPorts, buf.String(), want)
		}
	}
}
