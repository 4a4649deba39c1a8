// Round-trip rows of the conformance matrix: every routing scheme on
// every conformance family is pushed through the schemeio wire codec
// and the decoded instance must be indistinguishable from the built
// one under the full measurement pipeline —
//
//   - evaluation bit-identity: the decoded scheme's evaluate.Report
//     equals the built scheme's exactly, under the hop AND the weighted
//     metric, exhaustive and sampled, at several worker counts
//     (mirroring conformance_test.go / weighted_conformance_test.go);
//   - memory bit-identity: LocalBits and the full memory report are
//     unchanged by a round trip — persistence cannot move the paper's
//     measured quantity;
//   - LocalBits cross-check: the per-router serialized payload is the
//     metered code exactly for tables and interval routing, and stays
//     within a documented factor-2-plus-64-bit corridor of LocalBits
//     for the other schemes on every family (DESIGN.md "Scheme
//     persistence wire format"), so the Kolmogorov stand-in and the
//     real encoding cannot silently diverge;
//   - canonical bytes: re-encoding a decoded scheme reproduces the
//     blob byte for byte.
package repro

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/coding"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// codecCell is one (graph, scheme) instance of the round-trip matrix.
// The graph rides along because the adversarial complete-graph scheme
// scrambles port labelings and therefore lives on its own clone.
type codecCell struct {
	g *graph.Graph
	s routing.Scheme
}

// codecCells assembles every codec-covered scheme of one family: the
// shared conformance columns plus the adversarial K_n scheme (on a
// clone — Scramble is a port-labeling mutation) and, on the first
// family, the weighted table variant, which rides the same wire kind.
func codecCells(t *testing.T, f confFamily, apsp *shortest.APSP, w shortest.Weights) []codecCell {
	t.Helper()
	var cells []codecCell
	for _, cs := range confSchemes(t, f, apsp, 17) {
		cells = append(cells, codecCell{f.g, cs.s})
	}
	if f.isComplete {
		ga := f.g.Clone()
		adv, err := kcomplete.Scramble(ga, xrand.New(23))
		if err != nil {
			t.Fatalf("%s: scramble: %v", f.name, err)
		}
		cells = append(cells, codecCell{ga, adv})
	}
	wtb, err := table.NewWeighted(f.g, w, nil, table.MinPort)
	if err != nil {
		t.Fatalf("%s: weighted tables: %v", f.name, err)
	}
	cells = append(cells, codecCell{f.g, wtb})
	return cells
}

// TestCodecConformanceMatrix is the round-trip matrix itself.
func TestCodecConformanceMatrix(t *testing.T) {
	for _, f := range confFamilies() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			apsp := shortest.NewAPSPParallel(f.g, 0)
			w := shortest.RandomWeights(f.g, 9, xrand.New(91))
			for _, c := range codecCells(t, f, apsp, w) {
				name := c.s.Name()
				// The adversarial clone has its own port labeling, so its
				// weights (and distance tables) are its own too.
				cg, cw := c.g, w
				var capsp *shortest.APSP
				if cg == f.g {
					capsp = apsp
				} else {
					capsp = shortest.NewAPSPParallel(cg, 0)
					cw = shortest.RandomWeights(cg, 9, xrand.New(91))
				}
				enc, err := schemeio.Encode(cg, c.s)
				if err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				dec, err := schemeio.Decode(enc.Bytes, cg)
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				// Memory bit-identity.
				if !reflect.DeepEqual(evaluate.Memory(cg, dec, evaluate.Options{}), evaluate.Memory(cg, c.s, evaluate.Options{})) {
					t.Fatalf("%s: decoded memory report diverges", name)
				}
				// Canonical bytes.
				re, err := schemeio.Encode(cg, dec)
				if err != nil {
					t.Fatalf("%s: re-encode: %v", name, err)
				}
				if !bytes.Equal(re.Bytes, enc.Bytes) {
					t.Fatalf("%s: re-encoded bytes diverge", name)
				}
				// Evaluation bit-identity: hop and weighted metric,
				// exhaustive and sampled, at the conformance worker grid.
				for _, base := range []evaluate.Options{{}, {Sample: 300, Seed: 7}} {
					for _, workers := range confWorkers {
						o := base
						o.Workers = workers
						want, err := evaluate.Stretch(cg, c.s, capsp, o)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						got, err := evaluate.Stretch(cg, dec, capsp, o)
						if err != nil {
							t.Fatalf("%s workers=%d: decoded: %v", name, workers, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s workers=%d sampled=%v: decoded hop report diverges", name, workers, base.Sample > 0)
						}
						wantW, err := evaluate.WeightedStretch(cg, c.s, cw, nil, o)
						if err != nil {
							t.Fatalf("%s workers=%d weighted: %v", name, workers, err)
						}
						gotW, err := evaluate.WeightedStretch(cg, dec, cw, nil, o)
						if err != nil {
							t.Fatalf("%s workers=%d weighted: decoded: %v", name, workers, err)
						}
						if !reflect.DeepEqual(gotW, wantW) {
							t.Fatalf("%s workers=%d sampled=%v: decoded weighted report diverges", name, workers, base.Sample > 0)
						}
					}
				}
			}
		})
	}
}

// TestMappedReaderConformanceMatrix extends the round-trip matrix to
// the zero-copy container: every codec-covered scheme of every family
// is framed into a v2 container, reopened through the mapped reader
// (lazy per-router decode, table rows straight out of the mapping),
// and the mapped scheme must be indistinguishable from the heap-decoded
// one under the full measurement pipeline — evaluate.Report equality
// under the hop AND the weighted metric, memory report equality, and
// per-router LocalBits equality. This is the acceptance gate that -mmap
// routing is bit-identical to -load routing.
func TestMappedReaderConformanceMatrix(t *testing.T) {
	for _, f := range confFamilies() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			apsp := shortest.NewAPSPParallel(f.g, 0)
			w := shortest.RandomWeights(f.g, 9, xrand.New(91))
			for _, c := range codecCells(t, f, apsp, w) {
				name := c.s.Name()
				cg, cw := c.g, w
				var capsp *shortest.APSP
				if cg == f.g {
					capsp = apsp
				} else {
					capsp = shortest.NewAPSPParallel(cg, 0)
					cw = shortest.RandomWeights(cg, 9, xrand.New(91))
				}
				var buf bytes.Buffer
				if err := schemeio.WriteFileV2(&buf, cg, c.s); err != nil {
					t.Fatalf("%s: write v2: %v", name, err)
				}
				m, err := schemeio.MapBytes(buf.Bytes())
				if err != nil {
					t.Fatalf("%s: map: %v", name, err)
				}
				// Heap baseline decoded from the same container bytes, so
				// the comparison isolates the reader, not the framing.
				hg, hs, err := schemeio.ReadFile(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%s: heap read: %v", name, err)
				}
				if hg.Order() != cg.Order() {
					t.Fatalf("%s: heap graph order diverges", name)
				}
				ms := m.Scheme()
				// Per-router LocalBits and the aggregate memory report must
				// agree between the two readers.
				for x := 0; x < cg.Order(); x++ {
					if got, want := ms.LocalBits(graph.NodeID(x)), hs.LocalBits(graph.NodeID(x)); got != want {
						t.Fatalf("%s: router %d: mapped LocalBits %d, heap %d", name, x, got, want)
					}
				}
				if !reflect.DeepEqual(evaluate.Memory(cg, ms, evaluate.Options{}), evaluate.Memory(cg, hs, evaluate.Options{})) {
					t.Fatalf("%s: mapped memory report diverges from heap", name)
				}
				// Full evaluate-report equality, hop and weighted metric.
				for _, workers := range []int{1, 4} {
					o := evaluate.Options{Workers: workers}
					want, err := evaluate.Stretch(cg, hs, capsp, o)
					if err != nil {
						t.Fatalf("%s workers=%d: heap: %v", name, workers, err)
					}
					got, err := evaluate.Stretch(cg, ms, capsp, o)
					if err != nil {
						t.Fatalf("%s workers=%d: mapped: %v", name, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s workers=%d: mapped hop report diverges from heap", name, workers)
					}
					wantW, err := evaluate.WeightedStretch(cg, hs, cw, nil, o)
					if err != nil {
						t.Fatalf("%s workers=%d weighted: heap: %v", name, workers, err)
					}
					gotW, err := evaluate.WeightedStretch(cg, ms, cw, nil, o)
					if err != nil {
						t.Fatalf("%s workers=%d weighted: mapped: %v", name, workers, err)
					}
					if !reflect.DeepEqual(gotW, wantW) {
						t.Fatalf("%s workers=%d: mapped weighted report diverges from heap", name, workers)
					}
				}
				if err := m.Verify(); err != nil {
					t.Fatalf("%s: post-evaluation Verify: %v", name, err)
				}
			}
		})
	}
}

// TestCodecLocalBitsCrossCheck pins the wire spans to the metered code.
// The table kinds (hop and weighted) ship exactly the code LocalBits
// meters, so RouterBits[x] == LocalBits(x); interval ships it less the
// ceil(log2 n)-bit own label, which moves to the shared label section.
// Every other scheme stays in the documented corridor wire(x) <=
// 2*LocalBits(x) + 64 and LocalBits(x) <= 2*wire(x) + 64: the slack
// absorbs per-scheme framing (varint counts, byte padding) and the
// schemes whose router state is implicit in the graph (e-cube, friendly
// K_n: wire(x) = 0 while LocalBits = O(log n)). A hypercube 1-IRS cell
// rides along, and its decoded scheme must route every pair as the
// built one does.
func TestCodecLocalBitsCrossCheck(t *testing.T) {
	const factor, slack = 2, 64
	type cell struct {
		name string
		g    *graph.Graph
		s    routing.Scheme
	}
	var cells []cell
	for _, f := range confFamilies() {
		apsp := shortest.NewAPSPParallel(f.g, 0)
		w := shortest.RandomWeights(f.g, 9, xrand.New(91))
		for _, c := range codecCells(t, f, apsp, w) {
			cells = append(cells, cell{f.name, c.g, c.s})
		}
	}
	cube := gen.Hypercube(5)
	irs, err := interval.NewHypercube1IRS(cube, 5)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{"hypercube(5)", cube, irs})
	for _, c := range cells {
		enc, err := schemeio.Encode(c.g, c.s)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.name, c.s.Name(), err)
		}
		lc := c.s.(routing.LocalCoder)
		for x := 0; x < c.g.Order(); x++ {
			wb := enc.RouterBits[x]
			lb := lc.LocalBits(graph.NodeID(x))
			switch c.s.(type) {
			case *table.Scheme:
				if wb != lb {
					t.Fatalf("%s/%s: router %d serialized in %d bits, LocalBits %d", c.name, c.s.Name(), x, wb, lb)
				}
			case *interval.Scheme:
				if own := coding.BitsFor(uint64(c.g.Order())); wb+own != lb {
					t.Fatalf("%s/%s: router %d serialized in %d bits + %d-bit label, LocalBits %d",
						c.name, c.s.Name(), x, wb, own, lb)
				}
			default:
				if wb > factor*lb+slack || lb > factor*wb+slack {
					t.Fatalf("%s/%s: router %d serialized in %d bits, LocalBits %d — meters diverged",
						c.name, c.s.Name(), x, wb, lb)
				}
			}
		}
	}
	enc, err := schemeio.Encode(cube, irs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := schemeio.Decode(enc.Bytes, cube)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < cube.Order(); u++ {
		for v := 0; v < cube.Order(); v++ {
			want, errW := routing.Route(cube, irs, graph.NodeID(u), graph.NodeID(v), 0)
			got, errG := routing.Route(cube, dec, graph.NodeID(u), graph.NodeID(v), 0)
			if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("hypercube 1-IRS %d->%d: decoded route %v (%v), built %v (%v)", u, v, got, errG, want, errW)
			}
		}
	}
}
