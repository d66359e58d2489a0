// Command tsplit-serve runs the TSPLIT planner as a service:
// POST /v1/plan takes a model name (or an inline graph spec), a device
// profile, and planner options, and answers with the plan, its
// predicted peak, and optionally the planner's decision report;
// POST /v1/peak takes the same body and answers with the peak the
// simulated runtime reaches under that plan. On either endpoint,
// identical requests are answered from a content-addressed cache or
// coalesced onto one in-flight run; overload sheds with 429 +
// Retry-After instead of queueing without bound.
//
// GET /healthz reports liveness and cache occupancy; GET /metrics is
// Prometheus text exposition. On SIGINT/SIGTERM the server drains:
// in-flight requests finish, new ones answer 503, and -dump-out /
// -metrics-out files are written before exit.
//
// -smoke runs a self-test against an ephemeral listener instead of
// serving: plan twice and peak twice (miss then byte-identical hit),
// scrape the endpoints, write the observability artifacts, and exit
// nonzero on any mismatch. CI drives it via scripts/serve_smoke.sh and
// feeds the dump to tsplit-doctor.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tsplit/internal/obs"
	"tsplit/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache-entries", 0, "plan-cache capacity in entries (0 = default 512)")
	workloadEntries := flag.Int("workload-entries", 0, "prepared-workload cache capacity (0 = default 32)")
	maxConcurrent := flag.Int("max-concurrent", 0, "simultaneous planner runs (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "requests queued for a planner slot before shedding (0 = 4x max-concurrent)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request budget in queue + planner (0 = none)")
	retryAfter := flag.Int("retry-after", 0, "Retry-After seconds on 429 responses (0 = default 1)")
	flightN := flag.Int("flight", 1024, "flight-recorder ring size (events kept for the shutdown dump)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text metrics to this file at exit")
	dumpOut := flag.String("dump-out", "", "write a tsplit-doctor postmortem dump (flight + metrics + spans) to this file at exit")
	smoke := flag.Bool("smoke", false, "self-test against an ephemeral listener, write artifacts, and exit")
	flag.Parse()

	reg := obs.NewRegistry()
	tr := obs.NewTracer(nil)
	fl := obs.NewFlight(*flightN, nil)
	srv := serve.New(serve.Config{
		CacheEntries:      *cacheEntries,
		WorkloadEntries:   *workloadEntries,
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *maxQueue,
		RequestTimeout:    *requestTimeout,
		RetryAfterSeconds: *retryAfter,
		Metrics:           reg,
		Trace:             tr,
		Flight:            fl,
	})

	writeArtifacts := func() error {
		if *metricsOut != "" {
			if err := obs.WriteFile(*metricsOut, reg.WritePrometheus); err != nil {
				return err
			}
		}
		if *dumpOut != "" {
			dump := &obs.Dump{
				Reason:  "tsplit-serve shutdown",
				Events:  fl.Events(),
				Metrics: reg.Snapshot(),
				Spans:   tr.Tree(),
			}
			if err := obs.FileSink(*dumpOut)(dump); err != nil {
				return err
			}
		}
		return nil
	}

	if *smoke {
		if err := runSmoke(srv, writeArtifacts); err != nil {
			fmt.Fprintf(os.Stderr, "tsplit-serve -smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("tsplit-serve smoke ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsplit-serve: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("tsplit-serve listening on %s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("tsplit-serve: %v: draining\n", sig)
		srv.Drain() // in-flight requests finish; new ones answer 503
		_ = hs.Close()
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "tsplit-serve: %v\n", err)
	}
	if err := writeArtifacts(); err != nil {
		fmt.Fprintf(os.Stderr, "tsplit-serve: writing artifacts: %v\n", err)
		os.Exit(1)
	}
}

// runSmoke exercises the full service surface over a real listener:
// plan and peak (miss), each again (byte-identical hit), reject an
// unknown model, and read back /healthz and /metrics. It leaves the
// observability artifacts behind for tsplit-doctor.
func runSmoke(srv *serve.Server, writeArtifacts func() error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer func() { _ = hs.Close() }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: time.Minute}

	const body = `{"model":"vgg16","config":{"batch_size":32},"options":{"report":true}}`
	post := func(path string) ([]byte, string, error) {
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		return b, resp.Header.Get("X-Tsplit-Cache"), nil
	}
	// Each endpoint answers a repeated key from its cache with the
	// miss's bytes; only /v1/plan says which it was in a header.
	for _, ep := range []struct{ path, first, second string }{
		{"/v1/plan", "miss", "hit"},
		{"/v1/peak", "", ""},
	} {
		first, state, err := post(ep.path)
		if err != nil {
			return err
		}
		if state != ep.first {
			return fmt.Errorf("first %s: cache state %q, want %q", ep.path, state, ep.first)
		}
		second, state, err := post(ep.path)
		if err != nil {
			return err
		}
		if state != ep.second {
			return fmt.Errorf("second %s: cache state %q, want %q", ep.path, state, ep.second)
		}
		if !bytes.Equal(first, second) {
			return fmt.Errorf("%s: cache hit is not byte-identical to the miss (%d vs %d bytes)", ep.path, len(first), len(second))
		}
	}

	resp, err := client.Post(base+"/v1/plan", "application/json", strings.NewReader(`{"model":"nosuch"}`))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := client.Get(base + path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		b, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d err %v", path, resp.StatusCode, err)
		}
		if path == "/metrics" {
			for _, want := range []string{
				"tsplit_serve_requests_total", "tsplit_serve_cache_hits_total",
				"tsplit_serve_planner_runs_total", "tsplit_serve_peak_cache_hits_total",
			} {
				if !strings.Contains(string(b), want) {
					return fmt.Errorf("/metrics missing %s", want)
				}
			}
		}
	}

	srv.Drain()
	return writeArtifacts()
}
