// Package schemeio is the persistence boundary for routing schemes: it
// binds the versioned wire format of internal/coding (self-describing
// header: magic, version, scheme kind, graph order) to the per-scheme
// payload codecs in internal/scheme/*/codec.go, and frames scheme +
// graph together into a single loadable file.
//
// The contracts every codec upholds (and the fuzz/conformance suites
// pin):
//
//   - round trip: Decode(Encode(g, s).Bytes, g) routes bit-identically
//     to s — identical evaluation reports, identical LocalBits — and
//     re-encodes to the identical bytes. Decode enforces the converse
//     too: it re-encodes what it parsed and rejects any input that is
//     not the canonical encoding of its scheme, so no two byte strings
//     ever alias one scheme;
//   - hardening: malformed, truncated or version-skewed bytes return
//     errors, never panic; every allocation is sized by the graph the
//     caller supplies (plus the coding.MaxWireOrder header cap), never
//     by attacker-controlled counts alone;
//   - read-only after decode: a decoded scheme precomputes all state in
//     Decode and only reads it afterwards, so any number of goroutines
//     may route through it concurrently (the contract internal/serve
//     builds on).
//
// Per-router accounting: Encode reports, next to the blob, the payload
// bits attributable to each router (RouterBits). For the table scheme
// these equal LocalBits exactly; for every scheme they stay within the
// documented factor-2-plus-slack corridor of LocalBits that the
// conformance suite asserts — the cross-check that keeps the
// Kolmogorov stand-in and the real encoding from silently diverging.
package schemeio

import (
	"bytes"
	"fmt"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
)

// Scheme kinds, as carried in the wire header. Values are part of the
// persisted format: never renumber, only append.
const (
	KindTable         = 1 // *table.Scheme (hop or weighted build — the wire stores ports)
	KindInterval      = 2 // *interval.Scheme
	KindTree          = 3 // *tree.Scheme
	KindLandmark      = 4 // *landmark.Scheme
	KindKnFriendly    = 5 // *kcomplete.Friendly
	KindKnAdversarial = 6 // *kcomplete.Adversarial
	KindECube         = 7 // *ecube.Scheme
	KindDelta         = 8 // *Delta — a generation patch, not a standalone scheme (delta.go)
)

// KindName names a kind for reports and errors.
func KindName(kind uint64) string {
	switch kind {
	case KindTable:
		return "table"
	case KindInterval:
		return "interval"
	case KindTree:
		return "tree"
	case KindLandmark:
		return "landmark"
	case KindKnFriendly:
		return "kn-friendly"
	case KindKnAdversarial:
		return "kn-adversarial"
	case KindECube:
		return "ecube"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("kind-%d", kind)
	}
}

// Encoded is the result of serializing one scheme.
type Encoded struct {
	Bytes []byte // header + payload, zero-padded to a byte boundary
	Kind  uint64
	// RouterBits[x] is the payload bit count attributable to router x
	// (its serialized local state). Shared sections — header, label
	// permutations, landmark sets, address paths — are the remainder
	// TotalBits() - sum(RouterBits).
	RouterBits []int
	// PayloadBits is the exact bit length before byte padding.
	PayloadBits int
	// RouterOffs locates each router's span inside Bytes for random
	// access: router x occupies bits [RouterOffs[x], RouterOffs[x+1])
	// (absolute bit offsets, header included). Every codec writes the
	// per-router sections contiguously in router order, so the n+1
	// offsets are the cumulative sums of RouterBits from the block
	// start. This is what the container v2 index section persists.
	RouterOffs []int
}

// TotalBits returns the full serialized size in bits (8 per byte,
// padding included) — the number E20 reports next to MEM_global.
func (e *Encoded) TotalBits() int { return len(e.Bytes) * 8 }

// MaxRouterBits returns the largest per-router serialized size — the
// wire-side analogue of MEM_local.
func (e *Encoded) MaxRouterBits() int {
	m := 0
	for _, b := range e.RouterBits {
		if b > m {
			m = b
		}
	}
	return m
}

// Encode serializes s, which must be a scheme built on g (the wire
// format stores g's order and the payloads reference its degrees and
// ports; pairing a scheme with a different graph corrupts the blob).
// Schemes without a registered codec return an error.
func Encode(g *graph.Graph, s routing.Scheme) (*Encoded, error) {
	w := coding.NewBitWriter()
	var rb []int
	var routerStart int
	switch t := s.(type) {
	case *table.Scheme:
		if err := t.Preload(); err != nil {
			return nil, err // a lazily opened scheme with a poisoned stripe
		}
		w.WriteWireHeader(KindTable, g.Order())
		rb, routerStart = t.EncodePayload(w)
	case *interval.Scheme:
		w.WriteWireHeader(KindInterval, g.Order())
		rb, routerStart = t.EncodePayload(w)
	case *tree.Scheme:
		w.WriteWireHeader(KindTree, g.Order())
		rb, routerStart = t.EncodePayload(w)
	case *landmark.Scheme:
		w.WriteWireHeader(KindLandmark, g.Order())
		rb, routerStart = t.EncodePayload(w)
	case *kcomplete.Friendly:
		w.WriteWireHeader(KindKnFriendly, g.Order())
		rb, routerStart = t.EncodePayload(w)
	case *kcomplete.Adversarial:
		w.WriteWireHeader(KindKnAdversarial, g.Order())
		rb, routerStart = t.EncodePayload(w)
	case *ecube.Scheme:
		w.WriteWireHeader(KindECube, g.Order())
		rb, routerStart = t.EncodePayload(w)
	default:
		return nil, fmt.Errorf("schemeio: no codec for scheme %T (%s)", s, s.Name())
	}
	hdr, err := DecodeHeader(w.Bytes())
	if err != nil {
		return nil, err // unreachable for a just-written header; keep the invariant checked
	}
	offs := make([]int, len(rb)+1)
	offs[0] = routerStart
	for x, b := range rb {
		offs[x+1] = offs[x] + b
	}
	return &Encoded{Bytes: w.Bytes(), Kind: hdr.Kind, RouterBits: rb, PayloadBits: w.Len(), RouterOffs: offs}, nil
}

// DecodeHeader parses just the self-describing header of a serialized
// scheme — what a server consults before committing to a payload parse.
func DecodeHeader(data []byte) (coding.WireHeader, error) {
	return coding.NewBitReader(data, len(data)*8).ReadWireHeader()
}

// Decode parses a serialized scheme against the graph it was built on.
// The header's order must match g; the payload decoder of the header's
// kind validates everything else. The returned scheme routes
// bit-identically to the encoded one and is read-only: safe for any
// number of concurrent readers.
func Decode(data []byte, g *graph.Graph) (routing.Scheme, error) {
	s, _, err := decode(data, g)
	return s, err
}

// decode is Decode that also hands back the canonical re-encoding its
// gate computed, so the container reader checks the persisted index
// against it without serializing the scheme a second time.
func decode(data []byte, g *graph.Graph) (routing.Scheme, *Encoded, error) {
	r := coding.NewBitReader(data, len(data)*8)
	hdr, err := r.ReadWireHeader()
	if err != nil {
		return nil, nil, err
	}
	if hdr.Order != g.Order() {
		return nil, nil, fmt.Errorf("schemeio: blob is for order %d, graph has order %d", hdr.Order, g.Order())
	}
	var s routing.Scheme
	switch hdr.Kind {
	case KindTable:
		s, err = table.DecodePayload(r, g)
	case KindInterval:
		s, err = interval.DecodePayload(r, g)
	case KindTree:
		s, err = tree.DecodePayload(r, g)
	case KindLandmark:
		s, err = landmark.DecodePayload(r, g)
	case KindKnFriendly:
		s, err = kcomplete.DecodeFriendlyPayload(r, g)
	case KindKnAdversarial:
		s, err = kcomplete.DecodeAdversarialPayload(r, g)
	case KindECube:
		s, err = ecube.DecodePayload(r, g)
	case KindDelta:
		return nil, nil, fmt.Errorf("schemeio: kind delta is a generation patch, not a standalone scheme (use DecodeDelta)")
	default:
		return nil, nil, fmt.Errorf("schemeio: unknown scheme kind %d", hdr.Kind)
	}
	if err != nil {
		return nil, nil, err
	}
	if r.Remaining() >= 8 {
		return nil, nil, fmt.Errorf("schemeio: %d trailing bytes after payload", r.Remaining()/8)
	}
	// The sub-byte tail must be the encoder's zero padding: accepting a
	// set pad bit would let two distinct byte strings alias one scheme,
	// breaking "decodes successfully == re-encodes byte-identically".
	for r.Remaining() > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return nil, nil, err
		}
		if b != 0 {
			return nil, nil, fmt.Errorf("schemeio: nonzero padding bit after payload")
		}
	}
	// Canonicality gate: re-encode the decoded scheme and require the
	// input bytes back. This closes every alternative-spelling hole at
	// once — a table row flagged raw where RLE is shorter, interval
	// runs split at same-port boundaries, labels left uncovered — so
	// acceptance PROVES the blob is the one canonical encoding of its
	// scheme, instead of each payload decoder chasing spellings
	// individually. Costs one Encode per Decode, trivial for the
	// load-once serve-many lifecycle this package exists for, and the
	// container reader reuses re for its index check.
	re, err := Encode(g, s)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(re.Bytes, data) {
		return nil, nil, fmt.Errorf("schemeio: blob is not the canonical encoding of its scheme")
	}
	return s, re, nil
}
