//go:build unix

package store

import (
	"os"
	"syscall"
)

// readFile reads the file at path into buf's storage, growing it as
// needed, and returns the contents. It is os.ReadFile at its floor for
// a small file: one open, reads until end of file, one close. os.ReadFile adds a stat
// and the runtime poller's attempt to register the descriptor, which
// for a record cost about as much as the open and the read themselves.
func readFile(path string, buf []byte) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		}
		if n == 0 {
			return buf, nil
		}
		buf = buf[:len(buf)+n]
	}
}
