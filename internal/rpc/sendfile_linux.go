package rpc

import (
	"cmp"
	"io"
	"syscall"
)

const haveSendfile = true

// sendfile is a file tail's RawConn write callback: it sends what is left
// of w.file and reports it done unless the socket is full.
func (w *frameWriter) sendfile(sock uintptr) bool {
	for t := &w.file; t.N > 0; {
		k, err := syscall.Sendfile(int(sock), int(t.F.Fd()), &t.Off, int(min(t.N, 1<<30)))
		t.N -= int64(max(k, 0))
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
		case err != nil || k == 0: // k == 0: the file ends before the tail does
			w.fileErr = cmp.Or(err, io.ErrUnexpectedEOF)
			return true
		}
	}
	return true
}
