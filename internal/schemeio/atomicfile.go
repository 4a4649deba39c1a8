package schemeio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file through write and installs it at path
// in one step: the bytes go to a temporary file in path's directory,
// which is fsynced and then renamed over path. Readers of the file path
// named before — above all a server holding it open with OpenMapped —
// keep the old inode and all of its bytes, while truncating in place
// would turn their next untouched stripe into a SIGBUS. On error the
// temporary file is removed and path is left as it was. The file is
// created with mode 0644.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
