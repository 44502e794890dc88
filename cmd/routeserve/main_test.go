package main

import (
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestParseQuery pins the query-line grammar `op u v`. Router IDs are
// int32, so an ID outside that range must be a line error: parsed at
// int width and then narrowed, 2^32 would wrap to router 0 and be
// answered as a different query.
func TestParseQuery(t *testing.T) {
	ok := []struct {
		line string
		want serve.Query
	}{
		{"route 0 99", serve.Query{Op: serve.OpRoute, U: 0, V: 99}},
		{"len 3 4", serve.Query{Op: serve.OpLen, U: 3, V: 4}},
		{"stretch  7\t1", serve.Query{Op: serve.OpStretch, U: 7, V: 1}},
		// In int32 range but possibly beyond the graph: the server
		// answers it with a per-query error, so parsing accepts it.
		{"route 2147483647 -1", serve.Query{Op: serve.OpRoute, U: 2147483647, V: -1}},
	}
	for _, c := range ok {
		got, err := parseQuery(c.line)
		if err != nil {
			t.Fatalf("parseQuery(%q) = %v", c.line, err)
		}
		if got != c.want {
			t.Fatalf("parseQuery(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
	bad := []struct{ line, wantErr string }{
		{"route 4294967296 1", "bad source"},
		{"route 1 4294967296", "bad destination"},
		{"len 2147483648 0", "bad source"},
		{"len 0 -2147483649", "bad destination"},
		{"route x 1", "bad source"},
		{"route 1 2 3", "want `op u v`"},
		{"route 1", "want `op u v`"},
		{"teleport 0 1", "teleport"},
	}
	for _, c := range bad {
		q, err := parseQuery(c.line)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("parseQuery(%q) = %+v, %v; want error mentioning %q", c.line, q, err, c.wantErr)
		}
	}
}
