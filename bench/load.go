package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tsplit"
	"tsplit/internal/obs"
)

// target is the planning service with its default configuration, as
// cmd/tsplit-serve builds it, behind a real loopback listener.
type target struct {
	srv    *tsplit.PlanServer
	hs     *http.Server
	served chan error
	url    string
	http   *http.Client
}

func startTarget(clients int) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := tsplit.NewPlanServer(tsplit.PlanServerConfig{})
	t := &target{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients,
		}},
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// stop closes the listener and every connection, and returns once the
// accept loop has ended.
func (t *target) stop() {
	t.http.CloseIdleConnections()
	_ = t.hs.Close() // closing twice or with clients gone is harmless
	<-t.served
}

// reply is what a client keeps of one response. body is valid until
// the client's next post.
type reply struct {
	status int
	cache  string // X-Tsplit-Cache: miss | hit | coalesced, empty on /v1/peak
	body   []byte
}

// client is one closed-loop caller: it sends its next request only
// after the previous reply is drained, over one keep-alive connection.
type client struct {
	t   *target
	rd  bytes.Reader
	buf bytes.Buffer
	lat []int64 // ns, one per request of the current segment
	bad int
}

// post sends body to path and times send -> body drained.
func (c *client) post(path string, body []byte) (reply, time.Duration, error) {
	c.rd.Reset(body)
	req, err := http.NewRequest(http.MethodPost, c.t.url+path, &c.rd)
	if err != nil {
		return reply{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := obs.Wall()
	resp, err := c.t.http.Do(req)
	if err != nil {
		return reply{}, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read, or err below reports the failed read
	lat := obs.Wall().Sub(start)
	if err != nil {
		return reply{}, 0, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Tsplit-Cache"), body: c.buf.Bytes()}, lat, nil
}

// opFunc performs operation i on client c and reports its latency and
// whether the reply passed the workload's inline checks.
type opFunc func(c *client, i int) (time.Duration, bool)

// segment is one slice of a timed run.
type segment struct {
	lat    []int64 // ns, sorted
	wall   time.Duration
	alloc  uint64 // runtime.MemStats.TotalAlloc delta, bytes
	failed int
}

// drive runs op closed-loop on the clients, handing out indices from
// next, until limit indices are taken (limit > 0) or dur has passed
// (dur > 0).
func drive(cs []*client, next *atomic.Int64, limit int64, dur time.Duration, op opFunc) segment {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := obs.Wall()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		c.lat, c.bad = c.lat[:0], 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				lat, ok := op(c, int(i))
				c.lat = append(c.lat, int64(lat))
				if !ok {
					c.bad++
				}
				if dur > 0 && !obs.Wall().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	seg := segment{wall: obs.Wall().Sub(start)}
	runtime.ReadMemStats(&after)
	seg.alloc = after.TotalAlloc - before.TotalAlloc
	for _, c := range cs {
		seg.lat = append(seg.lat, c.lat...)
		seg.failed += c.bad
	}
	slices.Sort(seg.lat)
	return seg
}

// segments is the number of equal slices a timed run is cut into;
// every timing metric is the median of its per-segment values.
const segments = 5

// requestMetrics turns the segments of a request workload into its
// timing and allocation metrics.
func requestMetrics(segs []segment) (m map[string]Stat, attempted, failed int) {
	var p50, p99, rate, pass, alloc []float64
	for _, s := range segs {
		n := float64(len(s.lat))
		attempted += len(s.lat)
		failed += s.failed
		p50 = append(p50, float64(rank(s.lat, 50))/1e6)
		p99 = append(p99, float64(rank(s.lat, 99))/1e6)
		rate = append(rate, n/s.wall.Seconds())
		pass = append(pass, s.wall.Seconds()*passOps/n)
		alloc = append(alloc, float64(s.alloc)/1024/n)
	}
	return map[string]Stat{
		"req_p50_ms":      statOf("ms", attempted, p50...),
		"req_p99_ms":      statOf("ms", attempted, p99...),
		"req_per_s":       statOf("1/s", attempted, rate...),
		"pass_s":          statOf("s", attempted, pass...),
		"alloc_kb_per_op": statOf("KB", attempted, alloc...),
	}, attempted, failed
}

// passOps is how many requests make one pass of a request workload
// (pass_s is the host time they take); a sweep pass is one Table IV +
// Fig. 12 rendering.
const passOps = 1000
