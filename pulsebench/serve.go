package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/runtime"
)

// serveCompress is pulsed's -compress for the benchmark: one simulated
// minute every 50 ms, so hundreds of minute barriers fall inside a run.
const serveCompress = 1200

// serveFunctions is pulsed's built-in population.
const serveFunctions = 12

// warmup is the unmeasured load before the measured window: connections
// open, the daemon's rings and caches fill and the heap reaches its
// working size.
const warmup = time.Second

// serveTail functions are registered and deregistered over HTTP after the
// load phase, serveBatch at a time. Each batch stays registered until a
// minute barrier has closed over it, as a function that lives for minutes
// would, so every departed function leaves behind what a barrier built for
// it. Were functions retired before their first barrier, how many of them
// met one would depend on timing alone, and so would the memory they keep.
const (
	serveTail  = 2000
	serveBatch = 40
)

// daemon is a running pulsed.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon execs pulsed with default flags apart from a loopback
// address, the benchmark's -compress and -debug (which only mounts
// /debug/pprof and /debug/vars, the daemon's one window onto its heap), and
// returns once /healthz answers 200.
func startDaemon() (*daemon, time.Duration, error) {
	bin := filepath.Join(buildDir, "pulsed")
	if _, err := os.Stat(bin); err != nil {
		return nil, 0, fmt.Errorf("pulsed binary missing (run.sh builds it): %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(filepath.Join(buildDir, "pulsed.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{base: "http://" + addr, client: httpClient()}
	d.cmd = exec.Command(bin, "-addr", addr, "-compress", fmt.Sprint(serveCompress), "-debug")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	poll := &http.Client{Timeout: time.Second}
	for {
		resp, err := poll.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				poll.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("pulsed did not answer /healthz within 30s: %v", err)
		}
		// Set-up takes about 6 ms, so the poll interval must be well below
		// a millisecond: at 1 ms, it alone would step setup_s by a sixth.
		time.Sleep(100 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the daemon to exit, killing it if it
// has not within five seconds.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// heapReadings is how many times heap reads the daemon's heap.
const heapReadings = 5

// heap returns the daemon's live heap: the least HeapAlloc read just after
// a forced collection, over heapReadings tries. A reading also counts what
// the daemon allocated between its collection and the read, such as a
// minute barrier that fell in between, so the least is the closest to the
// live heap.
func (d *daemon) heap() (uint64, error) {
	best := uint64(math.MaxUint64)
	for i := 0; i < heapReadings; i++ {
		if err := get(d.client, d.base+"/debug/pprof/heap?gc=1", nil); err != nil {
			return 0, err
		}
		var vars struct {
			Memstats struct{ HeapAlloc uint64 } `json:"memstats"`
		}
		if err := get(d.client, d.base+"/debug/vars", &vars); err != nil {
			return 0, err
		}
		best = min(best, vars.Memstats.HeapAlloc)
	}
	return best, nil
}

// statsResponse is the GET /stats payload.
type statsResponse struct {
	runtime.Stats
	MeanAccuracyPct float64
}

// stepPhase is how long the daemon is left idle after the lifecycle tail
// while its barrier times are read: 100 minutes at serveCompress. Under load
// at 12 functions a Step takes tens of microseconds and its timing is
// mostly scheduling noise; after the tail it carries every slot ever
// issued, the cost a long-lived daemon pays.
const stepPhase = 5 * time.Second

// quietSteps lets the daemon tick for stepPhase and returns the barrier
// times it recorded meanwhile.
func quietSteps(client *http.Client, base string) (samples, error) {
	var a, b statsResponse
	if err := get(client, base+"/stats", &a); err != nil {
		return nil, err
	}
	time.Sleep(stepPhase)
	if err := get(client, base+"/stats", &b); err != nil {
		return nil, err
	}
	return stepSeries(client, base, a.Minute, b.Minute)
}

// stepSeries returns the barrier times, in ms, the daemon recorded for
// minutes in (from, to].
func stepSeries(client *http.Client, base string, from, to int) (samples, error) {
	var ts struct {
		Points []struct {
			Minute int     `json:"minute"`
			Value  float64 `json:"value"`
		} `json:"points"`
	}
	if err := get(client, base+"/timeseries?metric=step_latency_us&window=1440", &ts); err != nil {
		return nil, err
	}
	var out samples
	for _, p := range ts.Points {
		if p.Minute > from && p.Minute <= to {
			out = append(out, p.Value/1e3)
		}
	}
	return out, nil
}

func runServe(r *run) error {
	if r.traced {
		return runServeTraced(r)
	}
	var (
		d      *daemon
		setups samples
	)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	cat := familyVariants(pulse.Catalog())
	heapIdle, err := d.heap()
	if err != nil {
		return err
	}

	pick := newPicker(serveMix())
	family := func(fn int) int { return fn % len(cat) }
	addLoad(r, closedLoop(d.base, warmup, r.seed+1, pick.pick, family, cat, nil))
	var before statsResponse
	if err := get(d.client, d.base+"/stats", &before); err != nil {
		return err
	}
	res := closedLoop(d.base, time.Duration(r.seconds)*time.Second, r.seed, pick.pick, family, cat, nil)
	addLoad(r, res)
	var after statsResponse
	if err := get(d.client, d.base+"/stats", &after); err != nil {
		return err
	}
	checkServeStats(r, before, after, res.ok)

	heapLoad, err := d.heap()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	regUs, deregUs := lifecycleHTTP(r, d.client, d.base, serveTail, serveFunctions, rng, len(cat))
	heapTail, err := d.heap()
	if err != nil {
		return err
	}
	steps, err := quietSteps(d.client, d.base)
	if err != nil {
		return err
	}

	m := r.m
	m.pct("setup_s", setups, 50, 1, "s")
	m.set("ok_pct", okPct(r), "%", r.attempted)
	serveE2E(m, "", res, steps, regUs, deregUs)
	m.set("bytes_per_fn", float64(heapIdle)/serveFunctions, "B", serveFunctions)
	m.set("retained_bytes_per_departed", float64(int64(heapTail)-int64(heapLoad))/serveTail, "B", serveTail)
	paperMetrics(m, diffStats(before.Stats, after.Stats))
	return nil
}

// serveE2E sets the serve workload's latency and throughput metrics.
func serveE2E(m *metrics, prefix string, res loadResult, steps, regUs, deregUs samples) {
	rps, p50, p90 := res.windows()
	m.set(prefix+"serve_rps", rps, "req/s", res.ok)
	m.set(prefix+"serve_p50_us", p50, "us", res.ok)
	m.set(prefix+"serve_p90_us", p90, "us", res.ok)
	m.win(prefix+"step_p50_ms", steps, shortWindows, 50, 1, "ms")
	m.win(prefix+"step_p90_ms", steps, shortWindows, 90, 1, "ms")
	m.win(prefix+"register_p50_us", regUs, latencyWindows, 50, 1, "us")
	m.win(prefix+"deregister_p50_us", deregUs, latencyWindows, 50, 1, "us")
}

func addLoad(r *run, res loadResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	for _, p := range res.problems {
		r.check(false, "%s", p)
	}
}

// checkServeStats checks the daemon's ledger against what the client saw.
func checkServeStats(r *run, before, after statsResponse, ok int) {
	got := after.Invocations - before.Invocations
	r.check(got == ok, "/stats counted %d invocations, client got %d 200s", got, ok)
	r.check(after.WarmStarts+after.ColdStarts == after.Invocations, "warm %d + cold %d != invocations %d",
		after.WarmStarts, after.ColdStarts, after.Invocations)
}

// diffStats is the ledger accumulated between two snapshots.
func diffStats(a, b runtime.Stats) runtime.Stats {
	return runtime.Stats{
		Minute:           b.Minute - a.Minute,
		Invocations:      b.Invocations - a.Invocations,
		WarmStarts:       b.WarmStarts - a.WarmStarts,
		ColdStarts:       b.ColdStarts - a.ColdStarts,
		TotalServiceSec:  b.TotalServiceSec - a.TotalServiceSec,
		AccuracySumPct:   b.AccuracySumPct - a.AccuracySumPct,
		KeepAliveCostUSD: b.KeepAliveCostUSD - a.KeepAliveCostUSD,
	}
}

// runServeTraced serves an in-process replica, wrapped in the timing
// wrappers, over loopback and drives it like the serve workload: the same
// closed loop and scrapes, a minute ticker at the same compression, the
// same lifecycle tail, then a direct-call phase over the serve mix.
func runServeTraced(r *run) error {
	tr := newTracer(true)
	st, err := buildStack(serveFunctions, tr, true)
	if err != nil {
		return err
	}
	defer st.close()
	api := newAPITimer(st.api, tr)
	base, stopHTTP, err := loopback(api)
	if err != nil {
		return err
	}
	defer stopHTTP()

	// The minute ticker, as pulsed runs it, with each Step a root span.
	type tickResult struct {
		steps int
		err   error
	}
	ctx, cancel := context.WithCancel(context.Background())
	ticked := make(chan tickResult, 1)
	go func() {
		var res tickResult
		defer func() { ticked <- res }()
		tick := time.NewTicker(time.Minute / serveCompress)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if res.err = tr.root(spStep, st.rt.Step); res.err != nil {
					return
				}
				res.steps++
			}
		}
	}()
	stopTicker := func() int {
		cancel()
		res := <-ticked
		r.attempted += res.steps
		r.op(res.err)
		return res.steps
	}

	variants := familyVariants(st.cat)
	family := func(fn int) int { return st.asg[fn%len(st.asg)] }
	client := httpClient()
	defer client.CloseIdleConnections()
	pick := newPicker(serveMix())
	addLoad(r, closedLoop(base, warmup, r.seed+1, pick.pick, family, variants, nil))
	api.reset()
	var before statsResponse
	if err := get(client, base+"/stats", &before); err != nil {
		stopTicker()
		return err
	}
	res := closedLoop(base, time.Duration(r.seconds)*time.Second, r.seed, pick.pick, family, variants, api.serveNs)
	var after statsResponse
	err = get(client, base+"/stats", &after)
	rng := rand.New(rand.NewSource(r.seed))
	regUs, deregUs := lifecycleHTTP(r, client, base, serveTail, serveFunctions, rng, len(variants))
	var steps samples
	if err == nil {
		steps, err = quietSteps(client, base)
	}
	minutes := stopTicker()
	if err != nil {
		return err
	}
	addLoad(r, res)
	checkServeStats(r, before, after, res.ok)
	serveE2E(r.m, "traced.", res, steps, regUs, deregUs)

	// Direct calls over the same mix, for the runtime's own Invoke cost.
	var invokeNs samples
	prng := rand.New(rand.NewSource(r.seed + 1))
	for t0 := time.Now(); time.Since(t0) < time.Second; {
		fn := pick.pick(prng)
		s0 := time.Now()
		_, err := st.rt.Invoke(fn)
		invokeNs = append(invokeNs, float64(time.Since(s0)))
		r.op(err)
	}
	lp := layerProbe{
		tr: tr, st: st, minutes: minutes,
		downgrades: st.pulse.TotalDowngrades(), peaks: st.pulse.PeakMinutes(),
		invokeNs: invokeNs, liveNames: runtimeNames(st.rt), rng: rng,
		load: &res, api: api,
	}
	return lp.report(r, family, pick.pick)
}

// runtimeNames lists the runtime's live function names.
func runtimeNames(rt *runtime.Runtime) []string {
	var names []string
	for fn := 0; fn < rt.NumFunctions(); fn++ {
		if rt.FunctionActive(fn) {
			names = append(names, rt.FunctionName(fn))
		}
	}
	return names
}

// healthz holds the /healthz fields the fidelity check compares.
type healthz struct {
	Mode        string          `json:"mode"`
	Functions   int             `json:"functions"`
	Active      int             `json:"active"`
	Telemetry   bool            `json:"telemetry"`
	Attribution bool            `json:"attribution"`
	Provenance  bool            `json:"provenance"`
	Tracer      json.RawMessage `json:"tracer"`
	Alerts      struct {
		Enabled bool `json:"enabled"`
	} `json:"alerts"`
}

// families lists the metric names declared in a Prometheus exposition.
func families(text []byte) []string {
	var out []string
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2])
		}
	}
	sort.Strings(out)
	return out
}

// fidelity compares a 12-function replica, built by the same code as every
// traced stack, with a real pulsed: the /healthz wiring fields and the
// /metrics series names must agree, or the per-layer numbers would describe
// a different program.
func fidelity(r *run) error {
	d, _, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	var real healthz
	if err := get(d.client, d.base+"/healthz", &real); err != nil {
		return err
	}
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return err
	}
	realText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}

	st, err := buildStack(serveFunctions, nil, false)
	if err != nil {
		return err
	}
	defer st.close()
	rec := httptest.NewRecorder()
	st.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var replica healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &replica); err != nil {
		return fmt.Errorf("replica /healthz: %w", err)
	}
	rec = httptest.NewRecorder()
	st.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))

	rj, _ := json.Marshal(real)
	pj, _ := json.Marshal(replica)
	r.check(bytes.Equal(rj, pj), "replica /healthz %s differs from pulsed %s", pj, rj)
	rf, pf := families(realText), families(rec.Body.Bytes())
	r.check(strings.Join(rf, ",") == strings.Join(pf, ","), "replica /metrics series %v differ from pulsed %v", pf, rf)
	return nil
}
