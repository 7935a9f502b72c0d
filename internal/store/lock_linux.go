package store

import (
	"io"
	"os"
	"runtime"
	"syscall"
)

// fOFDSetlk is Linux's F_OFD_SETLK, which the syscall package does not
// name: it sets or clears a byte-range lock without waiting. The lock
// belongs to the open file description, so it excludes every other
// Dir, in this process or another, and the kernel drops it when the
// description's last descriptor closes, as when its process exits or
// is killed.
const fOFDSetlk = 37

// lockByte takes the write lock on byte off of f. It reports false
// only while another open file description holds it; a kernel that
// cannot lock the file, or a nil f, reports true, leaving the lock
// in-process.
func lockByte(f *os.File, off int64) bool {
	err := setLock(f, off, syscall.F_WRLCK)
	return err != syscall.EAGAIN && err != syscall.EACCES
}

// unlockByte releases the lock on byte off of f.
func unlockByte(f *os.File, off int64) { setLock(f, off, syscall.F_UNLCK) }

func setLock(f *os.File, off int64, typ int16) error {
	if f == nil {
		return nil
	}
	lk := syscall.Flock_t{Type: typ, Whence: io.SeekStart, Start: off, Len: 1}
	err := syscall.FcntlFlock(f.Fd(), fOFDSetlk, &lk)
	runtime.KeepAlive(f)
	return err
}
