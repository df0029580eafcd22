//go:build !unix || aix || solaris

package lease

import (
	"errors"
	"os"
)

// lockFile fails: this platform has no flock. Callers treat the error as
// broken lease machinery and run uncoordinated.
func lockFile(string, int) (*os.File, error) {
	return nil, errors.New("lease: flock is unavailable on this platform")
}
