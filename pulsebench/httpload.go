package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// loadWorkers is the number of closed-loop clients, each on its own
// keep-alive connection: one per CPU of the 2-CPU reference host, so the
// load generator never needs more goroutines than there are CPUs.
const loadWorkers = 2

// invocation mirrors the JSON body of a successful POST /invoke.
type invocation struct {
	Function int
	Minute   int
	Variant  string
	Cold     bool
}

// loadResult is what a closed-loop HTTP phase observed.
type loadResult struct {
	latUs     samples // /invoke round trips that returned 200
	doneS     samples // when each of latUs completed, in s since the start
	scrapeMs  samples // GET /metrics round trips
	ok        int     // /invoke 200s
	attempted int     // requests sent, scrapes included
	failed    int
	elapsed   time.Duration
	problems  []string
	// transportUs is each round trip minus the handler time the traced
	// replica measured for it (empty when untraced).
	transportUs samples
}

// windows returns the median over latencyWindows equal spans of the measured
// window of each span's throughput and p50 and p90 round trip, so that a
// burst of interference from outside the benchmark moves one span only.
func (res loadResult) windows() (rps, p50, p90 float64) {
	span := res.elapsed.Seconds() / latencyWindows
	lat := make([]samples, latencyWindows)
	for i, at := range res.doneS {
		w := min(int(at/span), latencyWindows-1)
		lat[w] = append(lat[w], res.latUs[i])
	}
	var r, a, b samples
	for _, l := range lat {
		r = append(r, float64(len(l))/span)
		a = append(a, l.pct(50))
		b = append(b, l.pct(90))
	}
	return r.median(), a.median(), b.median()
}

// httpClient returns a client with exactly one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// closedLoop runs loadWorkers clients against base for d. Each client
// sends its next request when the previous one has completed: POST
// /invoke for a function drawn by pick, except that once per wall second
// one client sends GET /metrics instead. family maps a function to its
// family, variants a family to its variant names. serveNs, when non-nil,
// returns the handler time the server measured for a request sequence
// number, which makes the transport share of each round trip visible.
func closedLoop(base string, d time.Duration, seed int64, pick func(*rand.Rand) int,
	family func(int) int, variants [][]string, serveNs func(seq int64) (int64, bool)) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	var scrapes, seq int64
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := httpClient()
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
			var local loadResult
			for {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				mu.Lock()
				due := int64(now.Sub(start)/time.Second) + 1
				scrape := scrapes < due && int(scrapes)%loadWorkers == w
				if scrape {
					scrapes++
				}
				seq++
				id := seq
				mu.Unlock()
				local.attempted++
				if scrape {
					t0 := time.Now()
					err := get(client, base+"/metrics", nil)
					if err != nil {
						local.failed++
						local.problems = append(local.problems, err.Error())
						continue
					}
					local.scrapeMs = append(local.scrapeMs, float64(time.Since(t0))/1e6)
					continue
				}
				fn := pick(rng)
				req, _ := http.NewRequest(http.MethodPost, base+"/invoke?fn="+strconv.Itoa(fn), nil)
				req.Header.Set("X-Bench-Seq", strconv.FormatInt(id, 10))
				t0 := time.Now()
				var inv invocation
				err := do(client, req, &inv)
				rtt := time.Since(t0)
				if err != nil {
					local.failed++
					if len(local.problems) < 5 {
						local.problems = append(local.problems, err.Error())
					}
					continue
				}
				local.ok++
				local.latUs = append(local.latUs, float64(rtt)/1e3)
				local.doneS = append(local.doneS, time.Since(start).Seconds())
				if serveNs != nil {
					if ns, ok := serveNs(id); ok {
						local.transportUs = append(local.transportUs, float64(rtt.Nanoseconds()-ns)/1e3)
					}
				}
				if inv.Function != fn {
					local.problems = append(local.problems, fmt.Sprintf("invoke fn=%d answered for function %d", fn, inv.Function))
				}
				if err := checkFamily(variants, family(fn), fn, inv.Variant); err != nil && len(local.problems) < 5 {
					local.problems = append(local.problems, err.Error())
				}
			}
			mu.Lock()
			res.latUs = append(res.latUs, local.latUs...)
			res.doneS = append(res.doneS, local.doneS...)
			res.scrapeMs = append(res.scrapeMs, local.scrapeMs...)
			res.transportUs = append(res.transportUs, local.transportUs...)
			res.ok += local.ok
			res.attempted += local.attempted
			res.failed += local.failed
			res.problems = append(res.problems, local.problems...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// do sends req and, on a 2xx answer, decodes the JSON body into out (when
// non-nil). Any other status is an error carrying the body.
func do(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", req.Method, req.URL.Path, err)
		}
	}
	return nil
}

func get(client *http.Client, url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return do(client, req, out)
}

// lifecycleHTTP registers count fresh functions through POST /functions,
// serveBatch at a time, waits for a minute barrier and deregisters the batch
// through DELETE /functions/{name}, timing every request. It checks that
// every registration got a fresh slot and that invoking a departed slot
// answers 410 Gone.
func lifecycleHTTP(r *run, client *http.Client, base string, count, firstSlot int, rng *rand.Rand, families int) (reg, dereg samples) {
	var names []string
	var slots []int
	for i := 0; i < count; i += serveBatch {
		names, slots = names[:0], slots[:0]
		for j := i; j < min(i+serveBatch, count); j++ {
			name := fmt.Sprintf("tail-%d", j)
			body := fmt.Sprintf(`{"name":%q,"family":%d}`, name, rng.Intn(families))
			req, _ := http.NewRequest(http.MethodPost, base+"/functions", bytes.NewBufferString(body))
			req.Header.Set("Content-Type", "application/json")
			var out struct {
				Slot int `json:"function"`
			}
			t0 := time.Now()
			err := do(client, req, &out)
			reg = append(reg, float64(time.Since(t0))/1e3)
			r.op(err)
			if err != nil {
				continue
			}
			r.check(out.Slot == firstSlot+j, "registration %q got slot %d, want fresh slot %d", name, out.Slot, firstSlot+j)
			names, slots = append(names, name), append(slots, out.Slot)
		}
		if err := awaitBarrier(client, base); err != nil {
			r.op(err)
			return reg, dereg
		}
		for _, name := range names {
			req, _ := http.NewRequest(http.MethodDelete, base+"/functions/"+name, nil)
			t0 := time.Now()
			err := do(client, req, nil)
			dereg = append(dereg, float64(time.Since(t0))/1e3)
			r.op(err)
		}
		if len(slots) == 0 {
			continue
		}
		req, _ := http.NewRequest(http.MethodPost, base+"/invoke?fn="+strconv.Itoa(slots[0]), nil)
		resp, err := client.Do(req)
		r.op(err)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			r.check(resp.StatusCode == http.StatusGone, "invoking departed slot %d answered %s, want 410", slots[0], resp.Status)
		}
	}
	return reg, dereg
}

// awaitBarrier returns once the server's minute has advanced past the one
// open when it was called, that is once a barrier has closed over
// everything registered before the call.
func awaitBarrier(client *http.Client, base string) error {
	var a, b statsResponse
	if err := get(client, base+"/stats", &a); err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if err := get(client, base+"/stats", &b); err != nil {
			return err
		}
		if b.Minute > a.Minute {
			return nil
		}
	}
	return fmt.Errorf("minute %d did not close within 5s", a.Minute)
}
