//go:build !linux

package store

import "errors"

// ReadFileAt is refused off Linux, where FSStore names no sizes
// (FileNamer): clients read every block as bytes.
func ReadFileAt(name, p []byte, off int64) error { return errors.ErrUnsupported }

// DirID is refused off Linux.
func DirID(dir string) (dev, ino uint64, err error) { return 0, 0, errors.ErrUnsupported }
