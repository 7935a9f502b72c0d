//go:build race

package session

// raceEnabled reports a -race build, under which sync.Pool drops a
// random quarter of what is put in it, so pooled memory is not reused
// reliably.
const raceEnabled = true
