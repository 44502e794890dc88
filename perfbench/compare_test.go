package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// series returns n values spread evenly around center by ±spread.
func series(center, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + spread*(2*float64(i)/float64(n-1)-1)
	}
	return out
}

func pairUp(base, head []float64) [][2]float64 {
	var ps [][2]float64
	for i := range base {
		ps = append(ps, [2]float64{base[i], head[i]})
	}
	return ps
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
	}{
		// Every head run beats its pair and the medians are far apart.
		{"improved lower", series(100, 2, 10), series(80, 2, 10), "lower", 0.1, "improved"},
		{"improved higher", series(100, 2, 10), series(120, 2, 10), "higher", 0.1, "improved"},
		// Within the noise band: no claim, no regression.
		{"unchanged", series(100, 2, 10), series(101, 2, 10), "lower", 0.1, "unchanged"},
		// Worse by more than the bound.
		{"regressed lower", series(100, 2, 10), series(120, 2, 10), "lower", 0.1, "regressed"},
		{"regressed higher", series(100, 2, 10), series(85, 2, 10), "higher", 0.1, "regressed"},
		// Base too noisy for the bound, and head does not beat every base run.
		{"unresolved", series(100, 30, 10), series(98, 30, 10), "lower", 0.1, "unresolved"},
	} {
		got, _ := verdict(c.base, c.head, pairUp(c.base, c.head), c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// The win fraction counts ties for neither side.
func TestVerdictWinFraction(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{9, 9, 10, 11}
	_, won := verdict(base, head, pairUp(base, head), "lower", 0.25)
	if won != 0.5 {
		t.Fatalf("won = %v, want 0.5", won)
	}
}

func writeRunSet(t *testing.T, path string, recs []record) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRunSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(p50, tput []float64) []record {
		var rs []record
		for i := range p50 {
			rs = append(rs, record{Workload: "serve-wire", Seed: uint64(i + 1), Correct: true, Metrics: map[string]metric{
				"p50_us":     {Value: p50[i], Unit: "us"},
				"throughput": {Value: tput[i], Unit: "1/s"},
			}})
		}
		return rs
	}
	base, head := filepath.Join(dir, "base.jsonl"), filepath.Join(dir, "head.jsonl")
	writeRunSet(t, base, mk(series(100, 2, 10), series(1000, 10, 10)))

	// p50 improves, throughput holds: exit 0.
	writeRunSet(t, head, mk(series(80, 2, 10), series(1001, 10, 10)))
	var out, errOut bytes.Buffer
	if code := runCompare([]string{"-bench", bench, base, head}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %s\n%s", code, errOut.String(), out.String())
	}
	for _, want := range []string{"p50_us", "improved", "throughput", "unchanged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	// Throughput regresses: exit 1.
	writeRunSet(t, head, mk(series(100, 2, 10), series(800, 10, 10)))
	out.Reset()
	if code := runCompare([]string{"-bench", bench, base, head}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on a regression, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("output lacks the regression:\n%s", out.String())
	}

	// One run set: the spread summary.
	out.Reset()
	if code := runCompare([]string{"-bench", bench, base}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on a summary\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "iqr/med") {
		t.Errorf("summary lacks the spread column:\n%s", out.String())
	}
}
