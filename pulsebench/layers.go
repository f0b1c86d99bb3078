package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// apiTimer wraps the replica's API handler for the traced run. /invoke and
// /metrics are timed per request; lifecycle requests run as root spans so
// the controller and observer calls they make nest under them.
type apiTimer struct {
	h  http.Handler
	tr *tracer

	mu       sync.Mutex
	invokeUs samples
	scrapeMs samples
	bySeq    map[int64]int64 // X-Bench-Seq → handler ns
}

func newAPITimer(h http.Handler, tr *tracer) *apiTimer {
	return &apiTimer{h: h, tr: tr, bySeq: map[int64]int64{}}
}

func (a *apiTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	serve := func() error { a.h.ServeHTTP(w, req); return nil }
	switch {
	case req.URL.Path == "/functions" && req.Method == http.MethodPost:
		_ = a.tr.root(spRegister, serve)
		return
	case strings.HasPrefix(req.URL.Path, "/functions/") && req.Method == http.MethodDelete:
		_ = a.tr.root(spDeregister, serve)
		return
	}
	t0 := time.Now()
	a.h.ServeHTTP(w, req)
	d := time.Since(t0)
	a.mu.Lock()
	defer a.mu.Unlock()
	switch req.URL.Path {
	case "/invoke":
		a.invokeUs = append(a.invokeUs, float64(d)/1e3)
		if seq, err := strconv.ParseInt(req.Header.Get("X-Bench-Seq"), 10, 64); err == nil {
			a.bySeq[seq] = int64(d)
		}
	case "/metrics":
		a.scrapeMs = append(a.scrapeMs, float64(d)/1e6)
	}
}

// reset drops what was timed so far, such as a warm-up.
func (a *apiTimer) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.invokeUs, a.scrapeMs, a.bySeq = nil, nil, map[int64]int64{}
}

func (a *apiTimer) serveNs(seq int64) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, ok := a.bySeq[seq]
	return ns, ok
}

// loopback serves h on an ephemeral 127.0.0.1 port until stop is called.
func loopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// httpProbeSeconds is how long the traced run of an in-process workload
// serves its replica over loopback to measure the API layer.
const httpProbeSeconds = 2

// layerProbe gathers what the traced run measured and adds the probes
// every workload shares, so that each traced run reports every per-layer
// metric.
type layerProbe struct {
	tr         *tracer
	st         *stack
	minutes    int // minutes stepped
	downgrades int
	peaks      int
	invokeNs   samples // direct Runtime.Invoke calls
	liveNames  []string
	rng        *rand.Rand

	// load and api are the traced serve run's HTTP phase; when nil the
	// report runs a short HTTP probe of its own.
	load *loadResult
	api  *apiTimer
}

// report runs the shared probes and sets every per-layer metric.
func (lp *layerProbe) report(r *run, family func(int) int, pick func(*rand.Rand) int) error {
	if err := fidelity(r); err != nil {
		return err
	}
	st, tr, m := lp.st, lp.tr, r.m
	if lp.load == nil {
		lp.api = newAPITimer(st.api, tr)
		base, stop, err := loopback(lp.api)
		if err != nil {
			return err
		}
		res := closedLoop(base, httpProbeSeconds*time.Second, r.seed, pick, family, familyVariants(st.cat), lp.api.serveNs)
		stop()
		addLoad(r, res)
		lp.load = &res
	}

	// Stats opens a write window over every stripe; time it on its own.
	var statsUs samples
	for t0 := time.Now(); len(statsUs) < 2000 && time.Since(t0) < time.Second; {
		s0 := time.Now()
		st.rt.Stats()
		statsUs = append(statsUs, float64(time.Since(s0))/1e3)
	}
	// Identity lookups of live names in random order.
	var lookupNs samples
	for i := 0; i < 20000 && len(lp.liveNames) > 0; i++ {
		name := lp.liveNames[lp.rng.Intn(len(lp.liveNames))]
		s0 := time.Now()
		_, ok := st.rt.LookupFunction(name)
		lookupNs = append(lookupNs, float64(time.Since(s0)))
		r.op(boolErr(ok, "lookup of live function %q failed", name))
	}

	m.pct("api.serve_us.p50", lp.api.invokeUs, 50, 1, "us")
	m.pct("api.serve_us.p99", lp.api.invokeUs, 99, 1, "us")
	m.pct("api.transport_us.p50", lp.load.transportUs, 50, 1, "us")
	m.pct("api.scrape_ms.p50", lp.api.scrapeMs, 50, 1, "ms")

	inv := st.rt.Stats().Invocations
	m.pct("runtime.invoke_ns.p50", lp.invokeNs, 50, 1, "ns")
	m.pct("runtime.invoke_ns.p99", lp.invokeNs, 99, 1, "ns")
	m.set("runtime.seqlock_retries_per_kinv", 1000*float64(st.rt.SeqlockRetries())/float64(inv), "count", inv)
	m.set("runtime.stripe_contention_per_kinv", 1000*float64(st.rt.StripeContention())/float64(inv), "count", inv)
	m.pct("runtime.stats_us.p50", statsUs, 50, 1, "us")

	spans := tr.spanSamples()
	m.pct("runtime.step_self_ms.p50", spans.self[spStep], 50, 1e-6, "ms")
	m.pct("runtime.register_self_us.p50", spans.self[spRegister], 50, 1e-3, "us")
	m.pct("runtime.deregister_self_us.p50", spans.self[spDeregister], 50, 1e-3, "us")

	m.pct("core.record_ms.p50", spans.dur[spRecord], 50, 1e-6, "ms")
	m.pct("core.keepalive_ms.p50", spans.dur[spKeepAlive], 50, 1e-6, "ms")
	m.pct("core.keepalive_ms.p90", spans.dur[spKeepAlive], 90, 1e-6, "ms")
	steps := float64(lp.minutes)
	m.set("core.downgrades_per_min", float64(lp.downgrades)/steps, "count", lp.minutes)
	m.set("core.peak_minute_pct", 100*float64(lp.peaks)/steps, "%", lp.minutes)
	m.set("core.active_slots.mean", tr.activeSlots.mean(), "count", len(tr.activeSlots))
	m.set("core.active_ratio", tr.activeRatio.mean(), "ratio", len(tr.activeRatio))
	m.pct("core.register_us.p50", spans.dur[spCoreRegister], 50, 1e-3, "us")
	m.pct("core.deregister_us.p50", spans.dur[spCoreDeregister], 50, 1e-3, "us")

	for id, name := range obsNames {
		o := tr.obs[id]
		o.mu.Lock()
		invNs, lifeNs := o.invokeNs, o.lifecycleNs
		o.mu.Unlock()
		m.pct(name+".invocation_ns.p50", invNs, 50, 1, "ns")
		m.set(name+".keepalive_calls_per_min", float64(o.calls[mKeepAlive].Load())/steps, "count", lp.minutes)
		m.set(name+".keepalive_ms_per_min", float64(o.ns[mKeepAlive].Load())/steps/1e6, "ms", lp.minutes)
		m.set(name+".schedule_ms_per_min", float64(o.ns[mSchedule].Load())/steps/1e6, "ms", lp.minutes)
		m.set(name+".barrier_ms_per_min", float64(o.barrierNs.Load())/steps/1e6, "ms", lp.minutes)
		m.pct(name+".lifecycle_us.p50", lifeNs, 50, 1e-3, "us")
	}
	tel := tr.obs[obsTelemetry]
	m.set("telemetry.keepalive_changed_ratio", float64(tel.kaChanged)/float64(tel.kaSamples), "ratio", int(tel.kaSamples))
	m.pct("identity.lookup_ns.p50", lookupNs, 50, 1, "ns")

	n := len(st.asg)
	for i, name := range []string{"telemetry", "provenance", "core", "runtime"} {
		m.set("mem."+name+"_bytes_per_fn", float64(st.mem[i])/float64(n), "B", n)
	}
	return tr.writeSpans(r)
}

func boolErr(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
