package store

import (
	"os"
	"syscall"
	"unsafe"
)

// atFDCWD is Linux's AT_FDCWD: openat resolves a relative path against
// the working directory.
const atFDCWD = -0x64

// readFile reads the file at name, a path followed by one NUL byte as
// the open system call takes it, into buf's storage, growing it as
// needed, and returns the contents. It is os.ReadFile at its floor for
// a small file: one open, reads until end of file, one close.
// os.ReadFile adds a stat and the runtime poller's attempt to register
// the descriptor, which for a record cost about as much as the open and
// the read themselves, and syscall.Open copies the path to terminate
// it.
func readFile(name []byte, buf []byte) ([]byte, error) {
	dirfd := atFDCWD
	var fd uintptr
	var errno syscall.Errno
	for {
		fd, _, errno = syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd), uintptr(unsafe.Pointer(&name[0])),
			syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
		if errno != syscall.EINTR {
			break
		}
	}
	if errno != 0 {
		return nil, &os.PathError{Op: "open", Path: string(name[:len(name)-1]), Err: errno}
	}
	defer syscall.Close(int(fd))
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(int(fd), buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &os.PathError{Op: "read", Path: string(name[:len(name)-1]), Err: err}
		}
		if n == 0 {
			return buf, nil
		}
		buf = buf[:len(buf)+n]
	}
}
