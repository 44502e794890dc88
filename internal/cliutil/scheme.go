package cliutil

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
	"repro/internal/shortest"
)

// SchemeNames lists the schemes BuildScheme resolves, in the order the
// CLI help texts spell them.
var SchemeNames = []string{"tables", "interval", "landmark", "ecube", "tree"}

// SchemeConfig carries the knobs of one scheme construction.
type SchemeConfig struct {
	// APSP is an optional precomputed dense hop table; nil lets
	// BuildScheme compute one when (and only when) the scheme needs it.
	APSP *shortest.APSP
	// Weights, when non-nil, upgrades the tables scheme to its
	// minimum-cost variant (the E17 object); the other schemes route by
	// their own hop-metric logic regardless.
	Weights shortest.Weights
	// WeightedAPSP is an optional precomputed weighted table for
	// Weights, saving minimum-cost tables a second n² build.
	WeightedAPSP *shortest.APSP
	// Seed drives landmark sampling.
	Seed uint64
	// Streaming marks a -distmode stream run: the dense table is
	// never materialized — landmark builds from streamed BFS rows
	// (bit-identical to the dense build) and the inherently
	// table-backed schemes are an explicit error, never a silent dense
	// fallback.
	Streaming bool
	// Workers sizes landmark.NewStreamed's pool (<= 0: all cores).
	Workers int
}

// BuildScheme is the scheme dispatch shared by the memreq and
// routeserve CLIs — like gen.ByName for families, one switch so a new
// scheme, a changed option or a reworded error reaches every CLI at
// once. It returns, next to the scheme, the dense hop table it used or
// built (nil for table-free schemes and streaming builds), so callers
// can reuse it instead of paying a second n² build.
func BuildScheme(name string, g *graph.Graph, cfg SchemeConfig) (routing.Scheme, *shortest.APSP, error) {
	hopTable := func() *shortest.APSP {
		if cfg.APSP == nil {
			cfg.APSP = shortest.NewAPSP(g)
		}
		return cfg.APSP
	}
	switch name {
	case "tables":
		if cfg.Streaming {
			return nil, nil, fmt.Errorf("scheme tables stores Theta(n^2) state; use -distmode dense (or pick landmark/tree/ecube)")
		}
		if cfg.Weights != nil {
			s, err := table.NewWeighted(g, cfg.Weights, cfg.WeightedAPSP, table.MinPort)
			return s, cfg.APSP, err
		}
		apsp := hopTable()
		s, err := table.New(g, apsp, table.MinPort)
		return s, apsp, err
	case "interval":
		if cfg.Streaming {
			return nil, nil, fmt.Errorf("scheme interval builds from the dense table; use -distmode dense (or pick landmark/tree/ecube)")
		}
		apsp := hopTable()
		s, err := interval.New(g, apsp, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
		return s, apsp, err
	case "landmark":
		if cfg.Streaming {
			s, err := landmark.NewStreamed(g, landmark.Options{Seed: cfg.Seed}, cfg.Workers)
			return s, nil, err
		}
		apsp := hopTable()
		s, err := landmark.New(g, apsp, landmark.Options{Seed: cfg.Seed})
		return s, apsp, err
	case "ecube":
		d := bits.Len(uint(g.Order())) - 1
		s, err := ecube.New(g, d)
		return s, cfg.APSP, err
	case "tree":
		s, err := tree.New(g, 0)
		return s, cfg.APSP, err
	default:
		return nil, nil, fmt.Errorf("unknown scheme %q", name)
	}
}
