package schemeio

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coding"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// testScheme is one (graph, scheme) instance of the codec suite.
type testScheme struct {
	name string
	g    *graph.Graph
	s    routing.Scheme
	kind uint64
}

func testSchemes(t *testing.T) []testScheme {
	t.Helper()
	out := []testScheme{}
	rnd := gen.RandomConnected(40, 0.15, xrand.New(7))
	apsp := shortest.NewAPSPParallel(rnd, 0)
	tb, err := table.New(rnd, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"tables", rnd, tb, KindTable})
	w := shortest.RandomWeights(rnd, 9, xrand.New(8))
	wtb, err := table.NewWeighted(rnd, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"tables-weighted", rnd, wtb, KindTable})
	iv, err := interval.New(rnd, apsp, interval.Options{Labels: interval.DFSLabels(rnd), Policy: interval.RunGreedy})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"interval", rnd, iv, KindInterval})
	lm, err := landmark.NewStreamed(rnd, landmark.Options{Seed: 17}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"landmark", rnd, lm, KindLandmark})

	tg := gen.RandomTree(31, xrand.New(9))
	tr, err := tree.New(tg, 0)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"tree", tg, tr, KindTree})

	kg := gen.Complete(9)
	fr, err := kcomplete.NewFriendly(kg)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"kn-friendly", kg, fr, KindKnFriendly})
	ag := gen.Complete(9)
	adv, err := kcomplete.Scramble(ag, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"kn-adversarial", ag, adv, KindKnAdversarial})

	hg := gen.Hypercube(4)
	ec, err := ecube.New(hg, 4)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testScheme{"ecube", hg, ec, KindECube})
	return out
}

// TestRoundTripStable pins, for every scheme: decode(encode) succeeds,
// the decoded scheme meters identical LocalBits, routes every ordered
// pair onto the identical hop sequence, and re-encodes to the identical
// bytes (deterministic canonical serialization).
func TestRoundTripStable(t *testing.T) {
	for _, ts := range testSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			enc, err := Encode(ts.g, ts.s)
			if err != nil {
				t.Fatal(err)
			}
			if enc.Kind != ts.kind {
				t.Fatalf("kind %d, want %d", enc.Kind, ts.kind)
			}
			n := ts.g.Order()
			if len(enc.RouterBits) != n {
				t.Fatalf("RouterBits has %d entries, want %d", len(enc.RouterBits), n)
			}
			sum := 0
			for _, b := range enc.RouterBits {
				if b < 0 {
					t.Fatalf("negative router bits %d", b)
				}
				sum += b
			}
			if sum > enc.PayloadBits || enc.PayloadBits > enc.TotalBits() {
				t.Fatalf("router bits %d > payload %d > total %d", sum, enc.PayloadBits, enc.TotalBits())
			}
			dec, err := Decode(enc.Bytes, ts.g)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Name() != ts.s.Name() {
				t.Fatalf("decoded name %q, want %q", dec.Name(), ts.s.Name())
			}
			for x := 0; x < n; x++ {
				if got, want := dec.LocalBits(graph.NodeID(x)), ts.s.LocalBits(graph.NodeID(x)); got != want {
					t.Fatalf("LocalBits(%d) = %d, want %d", x, got, want)
				}
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					a, err1 := routing.Route(ts.g, ts.s, graph.NodeID(u), graph.NodeID(v), 0)
					b, err2 := routing.Route(ts.g, dec, graph.NodeID(u), graph.NodeID(v), 0)
					if err1 != nil || err2 != nil {
						t.Fatalf("route %d->%d: %v / %v", u, v, err1, err2)
					}
					if len(a) != len(b) {
						t.Fatalf("route %d->%d: %d hops vs %d decoded", u, v, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("route %d->%d diverges at hop %d", u, v, i)
						}
					}
				}
			}
			re, err := Encode(ts.g, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes, enc.Bytes) {
				t.Fatal("re-encoding the decoded scheme changed the bytes")
			}
		})
	}
}

// TestFileRoundTrip pins what ReadFile hands back: for every kind the
// graph section bytes and a fully decoded heap scheme of
// the writer's own concrete type (a *table.Scheme for tables, which
// delta application patches — never a lazy view holding the container
// bytes) that routes identically (spot-checked; full identity is
// TestFileV2RoundTrip).
func TestFileRoundTrip(t *testing.T) {
	for _, ts := range testSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			var f bytes.Buffer
			if err := WriteFileV2(&f, ts.g, ts.s); err != nil {
				t.Fatal(err)
			}
			g2, s2, err := ReadFile(bytes.NewReader(f.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reflect.TypeOf(s2), reflect.TypeOf(ts.s); got != want {
				t.Fatalf("ReadFile returned %v, want heap %v", got, want)
			}
			if !bytes.Equal(graphSection(t, g2), graphSection(t, ts.g)) {
				t.Fatal("graph did not round-trip through the container")
			}
			n := g2.Order()
			for u := 0; u < n; u++ {
				v := (u + 1) % n
				if u == v {
					continue
				}
				la, err1 := routing.RouteLen(ts.g, ts.s, graph.NodeID(u), graph.NodeID(v), 0)
				lb, err2 := routing.RouteLen(g2, s2, graph.NodeID(u), graph.NodeID(v), 0)
				if err1 != nil || err2 != nil || la != lb {
					t.Fatalf("loaded scheme diverges at %d->%d: %d (%v) vs %d (%v)", u, v, la, err1, lb, err2)
				}
			}
		})
	}
}

// TestDecodeRejects pins the error paths shared by every kind.
func TestDecodeRejects(t *testing.T) {
	ts := testSchemes(t)[0]
	enc, err := Encode(ts.g, ts.s)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-order graph.
	small := gen.Complete(3)
	if _, err := Decode(enc.Bytes, small); err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("order mismatch: got err %v", err)
	}
	// Unknown kind.
	w := coding.NewBitWriter()
	w.WriteWireHeader(99, ts.g.Order())
	if _, err := Decode(w.Bytes(), ts.g); err == nil || !strings.Contains(err.Error(), "unknown scheme kind") {
		t.Fatalf("unknown kind: got err %v", err)
	}
	// Trailing bytes.
	if _, err := Decode(append(append([]byte{}, enc.Bytes...), 0, 0), ts.g); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: got err %v", err)
	}
	// Truncation at every byte boundary must error, never panic.
	for cut := 0; cut < len(enc.Bytes); cut++ {
		if _, err := Decode(enc.Bytes[:cut], ts.g); err == nil {
			t.Fatalf("truncated blob (%d bytes) accepted", cut)
		}
	}
	// Nonzero padding bit: a byte-distinct alias of a valid blob must be
	// rejected, keeping "decodes" equivalent to "re-encodes identically".
	if pad := enc.PayloadBits % 8; pad != 0 {
		aliased := append([]byte{}, enc.Bytes...)
		aliased[len(aliased)-1] |= 1 // lowest bit is always padding here
		if _, err := Decode(aliased, ts.g); err == nil || !strings.Contains(err.Error(), "padding") {
			t.Fatalf("nonzero pad bit: got err %v", err)
		}
	} else {
		t.Log("payload is byte-aligned; padding case not exercised by this blob")
	}
	// Version skew.
	skew := coding.NewBitWriter()
	skew.WriteBits(coding.WireMagic, 32)
	skew.WriteUvarint(coding.WireVersion + 1)
	skew.WriteUvarint(KindTable)
	skew.WriteUvarint(uint64(ts.g.Order()))
	if _, err := Decode(skew.Bytes(), ts.g); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew: got err %v", err)
	}
}

// TestDecodeRejectsHugeCounts pins the int-wrap hardening: a crafted
// blob whose first payload varint spells 2^63 (negative after a naive
// int() conversion) must be rejected by the count guard, never reach a
// make() panic. The landmark payload opens with its landmark-count
// varint, so splicing the huge varint right after the header hits the
// guard directly.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	var lm testScheme
	for _, ts := range testSchemes(t) {
		if ts.kind == KindLandmark {
			lm = ts
		}
	}
	enc, err := Encode(lm.g, lm.s)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the end of the header (it is byte-aligned: 32 magic bits
	// plus byte-shaped varints).
	r := coding.NewBitReader(enc.Bytes, len(enc.Bytes)*8)
	if _, err := r.ReadWireHeader(); err != nil {
		t.Fatal(err)
	}
	hdrBytes := r.Pos() / 8
	// The original count is a single-byte varint (small landmark sets);
	// replace it with the 10-group varint for 2^63.
	if enc.Bytes[hdrBytes]&0x80 != 0 {
		t.Fatal("test expects a single-byte landmark count")
	}
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	crafted := append(append(append([]byte{}, enc.Bytes[:hdrBytes]...), huge...), enc.Bytes[hdrBytes+1:]...)
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("crafted huge-count blob panicked the decoder: %v", rec)
		}
	}()
	if _, err := Decode(crafted, lm.g); err == nil {
		t.Fatal("crafted huge-count blob was accepted")
	}
}

// TestEncodeUnknownScheme pins the encoder's error for schemes without
// a codec.
func TestEncodeUnknownScheme(t *testing.T) {
	if _, err := Encode(gen.Petersen(), unknownScheme{}); err == nil || !strings.Contains(err.Error(), "no codec") {
		t.Fatalf("got err %v", err)
	}
}

type unknownScheme struct{}

func (unknownScheme) Init(src, dst graph.NodeID) routing.Header            { return nil }
func (unknownScheme) Port(x graph.NodeID, h routing.Header) graph.Port     { return graph.NoPort }
func (unknownScheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }
func (unknownScheme) LocalBits(x graph.NodeID) int                         { return 0 }
func (unknownScheme) Name() string                                         { return "unknown" }

// TestFileRejects pins ReadFile's hardening: bad magic (the retired
// "RSF1" and "RSF2" containers included), oversized sections and
// truncation all error.
func TestFileRejects(t *testing.T) {
	ts := testSchemes(t)[0]
	var f bytes.Buffer
	if err := WriteFileV2(&f, ts.g, ts.s); err != nil {
		t.Fatal(err)
	}
	data := f.Bytes()
	for name, bad := range map[string][]byte{"junk": []byte("XXXX"), "v1": v1Image(t, ts), "rsf2": rsf2Image(t, ts)} {
		if _, _, err := ReadFile(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "bad file magic") {
			t.Fatalf("%s magic: got err %v", name, err)
		}
	}
	// A section length over the cap must be rejected before allocating.
	huge := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(huge[8+8:], MaxFileSection+1)
	refreshCRCs(huge)
	if _, _, err := ReadFile(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized section: got err %v", err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, _, err := ReadFile(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated file (%d bytes) accepted", cut)
		}
	}
}
