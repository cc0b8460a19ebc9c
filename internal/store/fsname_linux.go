package store

import (
	"io"
	"syscall"
	"unsafe"
)

// openName opens the file a NUL-terminated name names, read-only, without
// allocating: os.Open and syscall.Open copy the name to end it with a
// NUL. (A stat by name would save a call, but its number differs by
// architecture.)
func openName(name []byte) (int, error) {
	const atFDCWD = ^uintptr(99) // -100; the names are absolute anyway
	fd, _, e := syscall.Syscall6(syscall.SYS_OPENAT, atFDCWD, uintptr(unsafe.Pointer(&name[0])), syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
	if e == syscall.ENOENT {
		return -1, ErrNotFound
	} else if e != 0 {
		return -1, e
	}
	return int(fd), nil
}

// Size implements FileNamer.
func (s *FSStore) Size(key []byte) (int64, error) {
	var room [256]byte
	fd, err := openName(AppendFileName(room[:0], s.dir, key))
	if err != nil {
		return 0, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	err = syscall.Fstat(fd, &st)
	return st.Size, err
}

// ReadFileAt reads len(p) bytes at off of the file that name, from
// AppendFileName, names, and allocates nothing: ErrNotFound when no file
// has the name, io.ErrUnexpectedEOF when the file ends first.
func ReadFileAt(name, p []byte, off int64) error {
	fd, err := openName(name)
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	for len(p) > 0 {
		n, err := syscall.Pread(fd, p, off)
		if err == nil && n == 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		p, off = p[n:], off+int64(n)
	}
	return nil
}

// DirID returns the device and inode numbers of the directory dir: two
// processes that get the same for one name see one directory.
func DirID(dir string) (dev, ino uint64, err error) {
	var st syscall.Stat_t
	err = syscall.Stat(dir, &st)
	return uint64(st.Dev), uint64(st.Ino), err
}
