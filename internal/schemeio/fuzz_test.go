// Fuzzing for the scheme persistence boundary — the same absolute
// contract FuzzReadFrom established for graph serialization: malformed,
// truncated or version-skewed bytes must return errors, never panic,
// and never allocate beyond what the fixed target graph (plus the
// coding.MaxWireOrder header cap) justifies. One fuzzer per scheme
// decoder, each seeded with valid encodings of its kind plus mutated
// shapes, and one fuzzer for the self-describing header alone.
//
// Anything that decodes successfully must also be routable without
// panicking (it may misroute — routing.RouteLen reports that as an
// error — but it must never index out of bounds), and must re-encode
// without panicking.
package schemeio

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
	"repro/internal/xrand"
)

// fuzzGraph is the fixed decode target of the general-scheme fuzzers: a
// small random connected graph, the same for every run so the corpus
// stays meaningful.
func fuzzGraph() *graph.Graph { return gen.RandomConnected(24, 0.2, xrand.New(5)) }

// addMutations seeds truncations, bit flips and a growing tail of one
// valid encoding — the malformed shapes every decoder must reject
// gracefully.
func addMutations(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte{}, valid...), 0xff, 0x01))
}

// checkDecoded drives a successfully decoded scheme through a few
// routes and a re-encode; neither may panic, and the re-encode must
// reproduce the accepted bytes exactly — Decode's canonicality gate
// means acceptance IS a claim of byte-identity, so the fuzzers police
// it on every accepted input.
func checkDecoded(t *testing.T, g *graph.Graph, s routing.Scheme, accepted []byte) {
	t.Helper()
	n := g.Order()
	for u := 0; u < n && u < 4; u++ {
		_, _ = routing.RouteLen(g, s, graph.NodeID(u), graph.NodeID((u+n/2)%n), 2*n)
	}
	re, err := Encode(g, s)
	if err != nil {
		t.Fatalf("decoded scheme does not re-encode: %v", err)
	}
	if !bytes.Equal(re.Bytes, accepted) {
		t.Fatal("accepted blob is not the canonical encoding of its scheme")
	}
}

func fuzzDecode(f *testing.F, g *graph.Graph, valid []byte) {
	addMutations(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data, g)
		if err != nil {
			return // rejection is the expected outcome for junk
		}
		checkDecoded(t, g, s, data)
	})
}

func FuzzDecodeTable(f *testing.F) {
	g := fuzzGraph()
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(g, s)
	if err != nil {
		f.Fatal(err)
	}
	fuzzDecode(f, g, enc.Bytes)
}

func FuzzDecodeInterval(f *testing.F) {
	g := fuzzGraph()
	s, err := interval.New(g, nil, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(g, s)
	if err != nil {
		f.Fatal(err)
	}
	fuzzDecode(f, g, enc.Bytes)
}

func FuzzDecodeTree(f *testing.F) {
	g := gen.RandomTree(25, xrand.New(6))
	s, err := tree.New(g, 0)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(g, s)
	if err != nil {
		f.Fatal(err)
	}
	fuzzDecode(f, g, enc.Bytes)
}

func FuzzDecodeLandmark(f *testing.F) {
	g := fuzzGraph()
	s, err := landmark.New(g, nil, landmark.Options{Seed: 17})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(g, s)
	if err != nil {
		f.Fatal(err)
	}
	fuzzDecode(f, g, enc.Bytes)
}

func FuzzDecodeKComplete(f *testing.F) {
	g := gen.Complete(8)
	fr, err := kcomplete.NewFriendly(g)
	if err != nil {
		f.Fatal(err)
	}
	encF, err := Encode(g, fr)
	if err != nil {
		f.Fatal(err)
	}
	adv, err := kcomplete.Scramble(g, xrand.New(11))
	if err != nil {
		f.Fatal(err)
	}
	encA, err := Encode(g, adv)
	if err != nil {
		f.Fatal(err)
	}
	addMutations(f, encA.Bytes)
	addMutations(f, encF.Bytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data, g)
		if err != nil {
			return
		}
		checkDecoded(t, g, s, data)
	})
}

func FuzzDecodeECube(f *testing.F) {
	g := gen.Hypercube(3)
	s, err := ecube.New(g, 3)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(g, s)
	if err != nil {
		f.Fatal(err)
	}
	fuzzDecode(f, g, enc.Bytes)
}

// FuzzDecodeHeader exercises the self-describing header parser alone:
// it must classify arbitrary bytes as a valid header or an error
// without panicking, and an accepted order must respect the cap.
func FuzzDecodeHeader(f *testing.F) {
	g := fuzzGraph()
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(g, s)
	if err != nil {
		f.Fatal(err)
	}
	addMutations(f, enc.Bytes[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if hdr.Version != 1 {
			t.Fatalf("accepted header with version %d", hdr.Version)
		}
		if hdr.Order < 0 || hdr.Order > 1<<22 {
			t.Fatalf("accepted header with order %d past the cap", hdr.Order)
		}
	})
}

// FuzzReadFile exercises the file container end to end: junk must be
// rejected, and anything accepted must hold a Validate-clean graph and
// a routable scheme.
func FuzzReadFile(f *testing.F) {
	g := fuzzGraph()
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFileV2(&buf, g, s); err != nil {
		f.Fatal(err)
	}
	addMutations(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g2, s2, err := ReadFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("accepted file with invalid graph: %v", err)
		}
		// The container's scheme section passed Decode, so it is the
		// canonical encoding of s2 by construction; re-derive it for the
		// byte-identity assertion.
		enc, err := Encode(g2, s2)
		if err != nil {
			t.Fatalf("loaded scheme does not re-encode: %v", err)
		}
		checkDecoded(t, g2, s2, enc.Bytes)
	})
}

// FuzzReadFileMapped holds the mapped reader to the heap reader's
// verdict on arbitrary bytes: both must agree on accept/reject without
// panicking, an accepted image must re-frame byte-identically through
// WriteFileV2, and the mapped scheme must route exactly like the heap
// one. Seeds cover a valid table image, its mutations, and a valid
// landmark image (the whole-payload lazy path).
func FuzzReadFileMapped(f *testing.F) {
	g := fuzzGraph()
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteFileV2(&v2, g, s); err != nil {
		f.Fatal(err)
	}
	addMutations(f, v2.Bytes())
	lm, err := landmark.New(g, nil, landmark.Options{Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var lv2 bytes.Buffer
	if err := WriteFileV2(&lv2, g, lm); err != nil {
		f.Fatal(err)
	}
	f.Add(lv2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		hg, hs, herr := ReadFile(bytes.NewReader(data))
		heapOK := herr == nil
		m, merr := MapBytes(data)
		if merr == nil {
			if verr := m.Verify(); verr != nil {
				m.Close()
				merr = verr
			}
		}
		if heapOK != (merr == nil) {
			t.Fatalf("heap reader err %v, mapped reader err %v", herr, merr)
		}
		if merr != nil {
			return
		}
		defer m.Close()
		var re bytes.Buffer
		if err := WriteFileV2(&re, hg, hs); err != nil {
			t.Fatalf("accepted image does not re-frame: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatal("accepted v2 image is not the canonical container of its scheme")
		}
		n := hg.Order()
		for u := 0; u < n && u < 4; u++ {
			v := graph.NodeID((u + n/2) % n)
			lh, eh := routing.RouteLen(hg, hs, graph.NodeID(u), v, 0)
			lm, em := routing.RouteLen(m.Graph(), m.Scheme(), graph.NodeID(u), v, 0)
			if eh != nil || em != nil || lh != lm {
				t.Fatalf("route %d->%d: heap %d (%v), mapped %d (%v)", u, v, lh, eh, lm, em)
			}
		}
	})
}
