// Command mtvload load-tests an mtvserve endpoint (standalone server
// or cluster coordinator): N concurrent clients each submit sweep
// requests over disjoint slices of a latency axis, and the tool
// reports throughput, latency percentiles and the cache-tier mix as
// JSON on stdout.
//
//	mtvload -url http://localhost:8372 -clients 4 -sweeps 8 \
//	        -program tf -points 8
//
// Each client's sweeps use a latency band disjoint from every other
// client's, so a cold-store run measures simulation throughput (every
// point distinct) rather than cache-hit throughput; pass -overlap to
// make all clients request the same band instead, measuring how the
// server's caches share the work. The cache mix in the report tells you
// which measurement you actually took.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// sweepRequest mirrors the POST /api/v1/sweep schema (the subset the
// load generator uses); kept local so the tool exercises the server
// purely over the wire, like any external client.
type sweepRequest struct {
	Base      map[string]any `json:"base"`
	Latencies []int          `json:"latencies"`
}

// sweepReply is the subset of the sweep response the tool accounts.
type sweepReply struct {
	Points []struct {
		Cache string `json:"cache"`
		Error string `json:"error,omitempty"`
	} `json:"points"`
	Simulated int `json:"simulated"`
	MemoHits  int `json:"memo_hits"`
	StoreHits int `json:"store_hits"`
	Failed    int `json:"failed"`
	Retries   int `json:"retries,omitempty"`
}

// result is one sweep request's measurement.
type result struct {
	elapsed time.Duration
	reply   sweepReply
	err     error
}

// report is the tool's stdout JSON.
type report struct {
	URL        string  `json:"url"`
	Clients    int     `json:"clients"`
	SweepsEach int     `json:"sweeps_per_client"`
	PointsEach int     `json:"points_per_sweep"`
	Overlap    bool    `json:"overlap"`
	WallS      float64 `json:"wall_s"`

	Sweeps        int      `json:"sweeps"`
	SweepErrors   int      `json:"sweep_errors"`
	Points        int      `json:"points"`
	PointsPerS    float64  `json:"points_per_s"`
	P50MS         float64  `json:"p50_ms"`
	P90MS         float64  `json:"p90_ms"`
	P99MS         float64  `json:"p99_ms"`
	MaxMS         float64  `json:"max_ms"`
	Simulated     int      `json:"simulated"`
	MemoHits      int      `json:"memo_hits"`
	StoreHits     int      `json:"store_hits"`
	FailedPoints  int      `json:"failed_points"`
	ShardRetries  int      `json:"shard_retries"`
	ErrorExamples []string `json:"error_examples,omitempty"`
}

func main() {
	var (
		base    = flag.String("url", "http://localhost:8372", "mtvserve base URL (server or coordinator)")
		clients = flag.Int("clients", 4, "concurrent sweep clients")
		sweeps  = flag.Int("sweeps", 4, "sweep requests per client")
		points  = flag.Int("points", 8, "latency points per sweep")
		program = flag.String("program", "tf", "program tag for every point")
		mode    = flag.String("mode", "solo", "run mode: solo | queue")
		latency = flag.Int("latency0", 10, "first latency of the axis (cycles)")
		overlap = flag.Bool("overlap", false, "all clients request the same band (cache test) instead of disjoint bands")
		timeout = flag.Duration("timeout", 10*time.Minute, "per-sweep HTTP timeout")
	)
	flag.Parse()

	programs := []string{*program}
	if *mode == "queue" {
		programs = []string{*program, "sw"}
	}
	httpc := &http.Client{Timeout: *timeout}

	// Client c, sweep s asks for points in a band no other (c, s)
	// repeats — unless -overlap, where every client walks the same
	// bands and the server's caches take the load.
	band := func(c, s int) []int {
		lats := make([]int, *points)
		start := *latency + s*(*points)
		if !*overlap {
			start = *latency + (c*(*sweeps)+s)*(*points)
		}
		for i := range lats {
			lats[i] = start + i
		}
		return lats
	}

	results := make([][]result, *clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = make([]result, *sweeps)
			for s := 0; s < *sweeps; s++ {
				results[c][s] = oneSweep(httpc, *base, sweepRequest{
					Base:      map[string]any{"mode": *mode, "programs": programs},
					Latencies: band(c, s),
				})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)

	rep := report{
		URL: *base, Clients: *clients, SweepsEach: *sweeps, PointsEach: *points,
		Overlap: *overlap, WallS: wall.Seconds(),
	}
	var lat []float64
	for _, rs := range results {
		for _, r := range rs {
			rep.Sweeps++
			if r.err != nil {
				rep.SweepErrors++
				if len(rep.ErrorExamples) < 3 {
					rep.ErrorExamples = append(rep.ErrorExamples, r.err.Error())
				}
				continue
			}
			lat = append(lat, float64(r.elapsed.Nanoseconds())/1e6)
			rep.Points += len(r.reply.Points)
			rep.Simulated += r.reply.Simulated
			rep.MemoHits += r.reply.MemoHits
			rep.StoreHits += r.reply.StoreHits
			rep.FailedPoints += r.reply.Failed
			rep.ShardRetries += r.reply.Retries
		}
	}
	if wall > 0 {
		rep.PointsPerS = float64(rep.Points) / wall.Seconds()
	}
	sort.Float64s(lat)
	rep.P50MS = percentile(lat, 50)
	rep.P90MS = percentile(lat, 90)
	rep.P99MS = percentile(lat, 99)
	if n := len(lat); n > 0 {
		rep.MaxMS = lat[n-1]
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalln("mtvload:", err)
	}
	if rep.SweepErrors > 0 || rep.FailedPoints > 0 {
		os.Exit(1)
	}
}

func oneSweep(httpc *http.Client, base string, rq sweepRequest) result {
	body, err := json.Marshal(rq)
	if err != nil {
		return result{err: err}
	}
	start := time.Now()
	resp, err := httpc.Post(base+"/api/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{elapsed: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil {
		return result{elapsed: elapsed, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return result{elapsed: elapsed, err: fmt.Errorf("%s: %s", resp.Status, truncate(data, 200))}
	}
	var reply sweepReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return result{elapsed: elapsed, err: err}
	}
	return result{elapsed: elapsed, reply: reply}
}

// percentile interpolates the p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
