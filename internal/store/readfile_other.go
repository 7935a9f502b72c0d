//go:build !unix

package store

import "os"

// readFile returns the contents of the file at path; buf is unused.
func readFile(path string, buf []byte) ([]byte, error) { return os.ReadFile(path) }
