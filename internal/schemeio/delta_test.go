package schemeio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// deltaFixture runs one full repair pipeline: build on the base graph,
// inject a connectivity-preserving fault, repair incrementally, and
// return everything a delta needs plus the from-scratch rebuild to
// compare against.
func deltaFixture(t testing.TB) (base *graph.Graph, sch *table.Scheme, d *Delta, faulted *graph.Graph, fresh *table.Scheme) {
	t.Helper()
	base = gen.RandomConnected(32, 0.15, xrand.New(21))
	apsp := shortest.NewAPSPParallel(base, 0)
	sch, err := table.New(base, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faults.NewPlan(base, faults.Options{
		Mode: faults.KillEdges, Count: 3, Seed: 0xde17a, KeepConnected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Repair on a private clone so base/sch stay generation-g.
	work := base.Clone()
	apspW := shortest.NewAPSPParallel(work, 0)
	repaired, err := table.New(work, apspW, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Edges {
		work.RemoveEdge(e[0], e[1])
	}
	work.Freeze()
	dirty := faults.DirtyRoots(apspW, plan.Edges)
	apspW.RefreshRows(work, dirty)
	changed, err := repaired.Repair(apspW, dirty, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		t.Fatal("fixture fault changed no rows; pick a different seed")
	}
	d, err = NewDelta(7, plan.Edges, repaired, changed)
	if err != nil {
		t.Fatal(err)
	}

	faulted = base.Clone()
	plan.Apply(faulted)
	fresh, err = table.New(faulted, shortest.NewAPSPParallel(faulted, 0), table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	return base, sch, d, faulted, fresh
}

// TestDeltaRoundTrip pins encode → decode → re-encode byte identity and
// the field-level round trip.
func TestDeltaRoundTrip(t *testing.T) {
	base, _, d, _, _ := deltaFixture(t)
	enc, err := EncodeDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != KindDelta || hdr.Order != base.Order() {
		t.Fatalf("header {kind %d, order %d}, want {%d, %d}", hdr.Kind, hdr.Order, KindDelta, base.Order())
	}
	got, err := DecodeDelta(enc, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("decoded delta differs:\ngot  %+v\nwant %+v", got, d)
	}
	if got.NewGen() != 8 {
		t.Fatalf("NewGen = %d, want 8", got.NewGen())
	}
	re, err := EncodeDelta(base, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, enc) {
		t.Fatal("decoded delta re-encodes to different bytes")
	}
}

// TestDeltaApplyMatchesRebuild pins the serving-side contract: applying
// the decoded delta to the generation-g pair yields a graph and scheme
// that encode and evaluate identically to a from-scratch rebuild on the
// faulted topology — and leaves generation g untouched.
func TestDeltaApplyMatchesRebuild(t *testing.T) {
	base, sch, d, faulted, fresh := deltaFixture(t)
	preEnc, err := Encode(base, sch)
	if err != nil {
		t.Fatal(err)
	}

	enc, err := EncodeDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeDelta(enc, base)
	if err != nil {
		t.Fatal(err)
	}
	h, patched, err := ApplyDelta(base, sch, dec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != faulted.Size() {
		t.Fatalf("patched graph has %d edges, rebuild has %d", h.Size(), faulted.Size())
	}
	encP, err := Encode(h, patched)
	if err != nil {
		t.Fatal(err)
	}
	encF, err := Encode(faulted, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encP.Bytes, encF.Bytes) {
		t.Fatal("patched scheme encodes differently than the rebuild")
	}
	repP, err := evaluate.Stretch(h, patched, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repF, err := evaluate.Stretch(faulted, fresh, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repP, repF) {
		t.Fatalf("patched evaluation differs from rebuild:\n%+v\n%+v", repP, repF)
	}

	// Generation g must still encode byte-identically: Apply is
	// copy-on-write, never in-place.
	postEnc, err := Encode(base, sch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preEnc.Bytes, postEnc.Bytes) {
		t.Fatal("ApplyDelta mutated the base generation")
	}
}

// TestDeltaRejections pins the structured failure modes.
func TestDeltaRejections(t *testing.T) {
	base, _, d, _, _ := deltaFixture(t)
	enc, err := EncodeDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc, base); err == nil || !strings.Contains(err.Error(), "not a standalone scheme") {
		t.Fatalf("Decode of a delta blob: %v, want the not-a-standalone-scheme error", err)
	}
	if _, err := DecodeDelta(enc[:len(enc)/2], base); err == nil {
		t.Fatal("truncated delta decoded")
	}
	small := gen.Cycle(8)
	if _, err := DecodeDelta(enc, small); err == nil {
		t.Fatal("delta decoded against a graph of the wrong order")
	}
	flipped := append([]byte{}, enc...)
	flipped[len(flipped)-1] ^= 0x01 // disturb the padding / last row bits
	if _, err := DecodeDelta(flipped, base); err == nil {
		t.Fatal("bit-flipped delta decoded")
	}
	sch2, err := table.New(base, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Delta{BaseGen: 1, Kind: KindTable, Edges: [][2]graph.NodeID{{0, graph.NodeID(base.Order() + 3)}}}
	if _, err := EncodeDelta(base, bad); err == nil {
		t.Fatal("out-of-range delta edge encoded")
	}
	badApply := &Delta{BaseGen: 1, Kind: KindTable, Edges: [][2]graph.NodeID{{0, 1}}}
	if !base.HasEdge(0, 1) {
		if _, _, err := ApplyDelta(base, sch2, badApply); err == nil {
			t.Fatal("delta removing a non-edge applied")
		}
	}
	if _, err := NewDelta(1, [][2]graph.NodeID{{2, 2}}, sch2, nil); err == nil {
		t.Fatal("self-loop delta constructed")
	}
}

// FuzzDecodeDelta hardens the delta decode path like every other
// schemeio decoder: junk must error (never panic), and anything
// accepted must be the canonical encoding of its patch.
func FuzzDecodeDelta(f *testing.F) {
	base, _, d, _, _ := deltaFixture(f)
	valid, err := EncodeDelta(base, d)
	if err != nil {
		f.Fatal(err)
	}
	addMutations(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeDelta(data, base)
		if err != nil {
			return
		}
		re, err := EncodeDelta(base, dec)
		if err != nil {
			t.Fatalf("accepted delta does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted blob is not the canonical encoding of its delta")
		}
	})
}

// TestMappedPatchPoisonedStripe corrupts one stripe of a mapped table
// container, with the checksums refreshed so only the row proof can
// catch it. On a fresh mapping each time, so no earlier call has
// proven the stripe, WithRows of a router in that stripe, RowCopy of
// it, Repair, Encode and Verify must each return the stripe's proof
// error instead of patching or encoding NoPorts. A patch of an intact
// stripe succeeds and shares the poisoned one, which still answers
// NoPort.
func TestMappedPatchPoisonedStripe(t *testing.T) {
	const n, bad = 600, 300 // three stripes; bad is in the second
	g := gen.RandomConnected(n, 8.0/n, xrand.New(5))
	apsp := shortest.NewAPSPParallel(g, 0)
	sch, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(g, sch)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFileV2Encoded(&buf, g, enc); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bit := uint64(enc.RouterOffs[bad])
	data[binary.LittleEndian.Uint64(data[8+24:])+bit/8] ^= 1 << (7 - bit%8) // the router's raw/RLE flag
	refreshCRCs(data)
	open := func() *table.Scheme {
		t.Helper()
		m, err := MapBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		return m.Scheme().(*table.Scheme)
	}
	rowOf := func(x graph.NodeID) []graph.Port {
		t.Helper()
		row, err := sch.RowCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	want := fmt.Sprintf("table: router %d: ", bad)
	for name, fn := range map[string]func(s *table.Scheme) error{
		"WithRows": func(s *table.Scheme) error {
			_, err := s.WithRows(g, []graph.NodeID{bad + 1}, [][]graph.Port{rowOf(bad + 1)})
			return err
		},
		"RowCopy": func(s *table.Scheme) error { _, err := s.RowCopy(bad); return err },
		"Repair": func(s *table.Scheme) error {
			_, err := s.Repair(apsp, []graph.NodeID{0}, table.MinPort)
			return err
		},
		"Encode": func(s *table.Scheme) error { _, err := Encode(g, s); return err },
		"Verify": func(s *table.Scheme) error { return s.Preload() },
	} {
		if err := fn(open()); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%s on a poisoned stripe: error %v, want %q...", name, err, want)
		}
	}
	p, err := open().WithRows(g, []graph.NodeID{0}, [][]graph.Port{rowOf(0)})
	if err != nil {
		t.Fatalf("WithRows of an intact stripe: %v", err)
	}
	if got := p.Port(bad, p.Init(bad, 0)); got != graph.NoPort {
		t.Fatalf("poisoned router %d answers port %d", bad, got)
	}
	if got, want := p.Port(1, p.Init(1, bad)), sch.Port(1, sch.Init(1, bad)); got != want {
		t.Fatalf("patched scheme: Port(1 -> %d) = %d, built %d", bad, got, want)
	}
}
