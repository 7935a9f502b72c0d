//go:build !linux

package store

import "os"

// lockByte takes no cross-process lock off Linux: a Dir's held set
// alone excludes, within its process.
func lockByte(f *os.File, off int64) bool { return true }

// unlockByte has no lock to release.
func unlockByte(f *os.File, off int64) {}
