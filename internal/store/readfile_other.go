//go:build !linux

package store

import "os"

// readFile returns the contents of the file at name, a path followed
// by one NUL byte; buf is unused.
func readFile(name []byte, buf []byte) ([]byte, error) {
	return os.ReadFile(string(name[:len(name)-1]))
}
