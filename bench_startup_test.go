// Cold-start benchmarks for the scheme container: how long from a
// persisted file to a servable (graph, scheme) pair, and what it costs
// in heap. Two readers are swept at two scheme sizes:
//
//   - v2-full: the v2 container through schemeio.ReadFile — the mapped
//     reader's validation plus one eager decode of every router payload;
//   - v2-mapped: the v2 container through schemeio.OpenMapped — O(index)
//     validation now, router payloads decoded lazily on first touch, so
//     cold-start cost is independent of scheme size.
//
// CI archives these as BENCH_startup.json (see DESIGN.md "Bench
// trajectory"); EXPERIMENTS.md E22 reads the v2-full vs v2-mapped ratio
// off that document. The acceptance floor is mapped open >= 5x faster
// than v2 full decode at the largest benchmarked scheme:
//
//	go test -run '^$' -bench '^BenchmarkLoadContainer$' -benchtime 100x . \
//	    | go run ./cmd/benchjson > BENCH_startup.json
package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
)

// benchContainerFile persists one tables scheme under dir, returning
// its path. Tables are the dense regime — Θ(n log n) row bits — where
// eager versus lazy decode separates most.
func benchContainerFile(b *testing.B, dir string, n int) string {
	b.Helper()
	g := benchGraph(n)
	apsp := shortest.NewAPSP(g)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	path := fmt.Sprintf("%s/n%d.rsf2", dir, n)
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := schemeio.WriteFileV2(f, g, s); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkLoadContainer(b *testing.B) {
	dir := b.TempDir()
	for _, n := range []int{512, 2048} {
		v2Path := benchContainerFile(b, dir, n)
		b.Run(fmt.Sprintf("v2-full/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := os.Open(v2Path)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := schemeio.ReadFile(f); err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
			reportFileBytes(b, v2Path)
		})
		b.Run(fmt.Sprintf("v2-mapped/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := schemeio.OpenMapped(v2Path)
				if err != nil {
					b.Fatal(err)
				}
				// The open IS the measured cold start: directory, graph
				// and index validated, scheme payload untouched. The
				// scheme must still be in hand before Close.
				if m.Scheme() == nil {
					b.Fatal("no scheme")
				}
				m.Close()
			}
			reportFileBytes(b, v2Path)
		})
	}
}

func reportFileBytes(b *testing.B, path string) {
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "filebytes")
}
