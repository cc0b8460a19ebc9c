//go:build !linux

package rpc

// haveSendfile is Linux's: elsewhere file tails are copied.
const haveSendfile = false

func (w *frameWriter) sendfile(uintptr) bool { return true }
