package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

func init() {
	exp.Register(exp.Experiment{ID: "TESTOK", Title: "always succeeds", Run: func() ([]*exp.Table, error) {
		t := &exp.Table{ID: "TESTOK", Title: "ok", Columns: []string{"k", "v"}}
		t.AddRow("answer", "42")
		return []*exp.Table{t}, nil
	}})
	exp.Register(exp.Experiment{ID: "TESTFAIL", Title: "always fails", Run: func() ([]*exp.Table, error) {
		return nil, errors.New("injected failure")
	}})
}

// TestOutputFileSurvivesFailedRun checks that -o never truncates a
// previously recorded results file: when an experiment fails, in any
// format and whatever ran before it, the file keeps its exact bytes and
// no temporary file is left beside it.
func TestOutputFileSurvivesFailedRun(t *testing.T) {
	for _, format := range []string{"text", "json", "csv"} {
		dir := t.TempDir()
		path := filepath.Join(dir, "results.txt")
		recorded := []byte("### recorded results\nkeep me\n")
		if err := os.WriteFile(path, recorded, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-run", "TESTOK,TESTFAIL", "-format", format, "-o", path}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "injected failure") {
			t.Fatalf("%s: exit %d, stderr %q; want exit 1 naming the failure", format, code, stderr.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recorded) {
			t.Fatalf("%s: failed run changed the -o file to %q", format, got)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s: failed run left %d files in the output directory, want 1", format, len(entries))
		}
	}
}

// TestOutputFileWritten checks the success path: -o replaces the file
// with exactly what stdout would have shown.
func TestOutputFileWritten(t *testing.T) {
	for _, format := range []string{"text", "json", "csv"} {
		path := filepath.Join(t.TempDir(), "results")
		if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, fileOut, stderr bytes.Buffer
		if code := run([]string{"-run", "TESTOK", "-format", format}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: stdout run exit %d: %s", format, code, stderr.String())
		}
		if code := run([]string{"-run", "TESTOK", "-format", format, "-o", path}, &fileOut, &stderr); code != 0 {
			t.Fatalf("%s: -o run exit %d: %s", format, code, stderr.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if fileOut.Len() != 0 || !bytes.Equal(got, stdout.Bytes()) || !strings.Contains(string(got), "42") {
			t.Fatalf("%s: -o wrote %q, stdout run printed %q", format, got, stdout.String())
		}
	}
}
