package table

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func randomWeights(g *graph.Graph, r *xrand.Rand, maxW int) shortest.Weights {
	w := shortest.UniformWeights(g)
	for u := 0; u < g.Order(); u++ {
		for i, v := range g.Arcs(graph.NodeID(u)) {
			if p := graph.Port(i + 1); graph.NodeID(u) < v {
				c := int32(r.Intn(maxW) + 1)
				w[u][p-1] = c
				w[v][g.BackPort(graph.NodeID(u), p)-1] = c
			}
		}
	}
	return w
}

func TestWeightedTablesOptimalProperty(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%25) + 3
		r := xrand.New(seed)
		g := gen.RandomConnected(n, 0.25, r)
		w := randomWeights(g, r, 7)
		s, err := NewWeighted(g, w, nil, MinPort)
		if err != nil {
			return false
		}
		rep, err := routing.MeasureWeightedStretch(g, s, w, nil)
		if err != nil {
			return false
		}
		return rep.Max == 1.0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedTablesAvoidHeavyEdge(t *testing.T) {
	g := gen.Cycle(4)
	w := shortest.UniformWeights(g)
	p01 := g.PortTo(0, 1)
	w[0][p01-1] = 10
	w[1][g.BackPort(0, p01)-1] = 10
	s, err := NewWeighted(g, w, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := routing.Route(g, s, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if routing.PathLen(hops) != 3 {
		t.Fatalf("weighted route 0->1 has %d hops, want 3 (around the heavy edge)", routing.PathLen(hops))
	}
}

func TestWeightedTablesUniformEqualsUnweighted(t *testing.T) {
	g := gen.RandomConnected(25, 0.2, xrand.New(9))
	w := shortest.UniformWeights(g)
	a, err := New(g, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWeighted(g, w, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 25; u++ {
		for v := 0; v < 25; v++ {
			if u == v {
				continue
			}
			if a.PortEntry(graph.NodeID(u), graph.NodeID(v)) != b.PortEntry(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("uniform weighted tables differ at (%d,%d)", u, v)
			}
		}
	}
}

func TestWeightedTablesHopStretchCanExceedOne(t *testing.T) {
	// Under non-uniform costs the min-cost route may be longer in hops —
	// that is the point of the weighted metric.
	g := gen.Cycle(4)
	w := shortest.UniformWeights(g)
	p01 := g.PortTo(0, 1)
	w[0][p01-1] = 10
	w[1][g.BackPort(0, p01)-1] = 10
	s, err := NewWeighted(g, w, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := routing.MeasureStretch(g, s, nil) // hop-metric stretch
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max <= 1.0 {
		t.Fatalf("hop stretch %v, expected > 1 when avoiding the heavy edge", rep.Max)
	}
}
