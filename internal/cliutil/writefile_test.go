package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.rsf")
	put := func(b string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, b)
			return err
		}
	}
	if err := WriteFileAtomic(path, put("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, put("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("after overwrite: %q, want %q", got, "new")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", st.Mode().Perm())
	}

	// A writer that fails halfway must leave the old file intact and no
	// temporary file behind.
	boom := errors.New("disk full")
	err = WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("after failed write: %q, want the old %q", got, "new")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only out.rsf", names)
	}

	// A missing directory is an error, not a panic or a stray file.
	if err := WriteFileAtomic(filepath.Join(dir, "no", "such"), put("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
