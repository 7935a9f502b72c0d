package main

import (
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"time"
)

// storeLayers adds the store metrics of the traced traffic: the mean
// time of each Backend call, Do net of the simulation it wraps, the hit
// ratio of lookups, and the mean size of a record on disk. A call the
// traffic never made is left unset.
func storeLayers(m metricSet, ix spanIndex, ts []*timedStore, dirs []string) {
	for _, c := range []struct{ span, metric string }{
		{"store.get", "store.get_us"},
		{"store.put", "store.put_us"},
		{"store.trylock", "store.trylock_us"},
	} {
		if ns, n := ix.meanDur(c.span); n > 0 {
			m.set(c.metric, ns/1e3, "us")
		}
	}
	if len(ix.byName["store.do"]) > 0 {
		m.set("store.do_us", ix.meanSelf("store.do", "store.compute")/1e3, "us")
	}
	var lookups, hits int64
	for _, t := range ts {
		if t != nil {
			lookups += t.lookups.Load()
			hits += t.hits.Load()
		}
	}
	if lookups > 0 {
		m.set("store.hit_ratio", float64(hits)/float64(lookups), "fraction")
	}
	var files, bytes int64
	for _, d := range dirs {
		_ = filepath.WalkDir(d, func(path string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() || !strings.HasSuffix(path, ".json") {
				return nil
			}
			if info, err := de.Info(); err == nil {
				files++
				bytes += info.Size()
			}
			return nil
		})
	}
	if files > 0 {
		m.set("store.record_kb", float64(bytes)/float64(files)/1024, "KiB")
	}
}

// memoHitRounds is how many times memoHitUS replays the probe specs.
const memoHitRounds = 50

// memoHitUS times RunAll of specs the session has already answered,
// in microseconds per point. One untimed RunAll first makes sure every
// spec is in the memo.
func memoHitUS(inst instance) (float64, error) {
	ses, specs, err := inst.memoProbe()
	if err != nil || len(specs) == 0 {
		return 0, err
	}
	ctx := context.Background()
	if _, err := ses.RunAll(ctx, specs...); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < memoHitRounds; i++ {
		if _, err := ses.RunAll(ctx, specs...); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() * 1e6 / float64(memoHitRounds*len(specs)), nil
}
