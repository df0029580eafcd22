//go:build unix && !aix && !solaris

package lease

import (
	"os"
	"syscall"
)

// lockFile opens path read-write with the extra open flags and takes a
// non-blocking exclusive flock on the new descriptor. flock locks belong
// to the open file description, so two descriptors exclude each other
// even within one process; POSIX fcntl locks would not.
func lockFile(path string, flag int) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, ErrHeld
		}
		return nil, &os.PathError{Op: "flock", Path: path, Err: err}
	}
	return f, nil
}
