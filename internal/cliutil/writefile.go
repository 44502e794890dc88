package cliutil

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with whatever write produces, crash-safely:
// the bytes go to a temporary file in path's directory, which is synced,
// closed and then renamed over path. A reader therefore sees either the
// old file or the complete new one, never a torn write; on any error the
// temporary file is removed and path is left untouched. The file is
// created with mode 0644, like the os.WriteFile calls it replaces.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
