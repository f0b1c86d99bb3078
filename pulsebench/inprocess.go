package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/runtime"
)

// shape sizes an in-process workload. The amount of work is a pure
// function of the shape, the seed and -seconds, so the paper's metrics
// (keep-alive cost, accuracy, service time) are exact for a given seed.
type shape struct {
	name string
	// live is the number of registered functions, held constant.
	live int
	// minutesPerSecond converts -seconds into simulated minutes, sized so
	// that a run takes about -seconds on the 2-CPU reference host.
	minutesPerSecond int
	// churnPerMinute functions are deregistered and replaced by newly
	// named ones every minute of the main loop.
	churnPerMinute int
	// tail replacements run after the main loop, so a workload without
	// churn still measures lifecycle latency and retained memory at its
	// population.
	tail int
}

var (
	// fleet: the minute barrier at 100 000 slots, about 1% invoked each
	// minute; HTTP and lifecycle stay out of the timed loop.
	fleetShape = shape{name: "fleet", live: 100_000, minutesPerSecond: 8, tail: tailWarmup + 1000}
	// churn: 10 000 live functions with 2% replaced every minute, so that
	// two whole populations depart in a 20-second run.
	churnShape = shape{name: "churn", live: 10_000, minutesPerSecond: 5, churnPerMinute: 200}
)

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 7

// tailWarmup replacements open a lifecycle tail untimed.
const tailWarmup = 200

// fnName names slot s: the built-in population keeps pulsed's default
// names, replacements are named after their slot.
func fnName(s, live int) string {
	if s < live {
		return fmt.Sprintf("fn-%d", s)
	}
	return fmt.Sprintf("c-%d", s)
}

// replacement retires victim and registers the next fresh slot with family.
type replacement struct {
	victim int32
	family int8
}

// inputs is everything a run of a shape feeds the replica.
type inputs struct {
	minutes int
	cal     calendar
	// plan holds each minute's replacements; plan[minutes] is the tail.
	plan [][]replacement
}

// makeInputs draws a run's invocations and replacements. Slots are issued
// in registration order, so the i-th newcomer gets slot live+i and its
// invocations are booked from the minute after it registers.
func makeInputs(seed int64, sh shape, minutes, families int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{minutes: minutes, cal: newCalendar(minutes), plan: make([][]replacement, minutes+1)}
	in.cal.population(rng, sh.live)
	live := make([]int32, sh.live)
	for i := range live {
		live[i] = int32(i)
	}
	next := sh.live
	for t := 0; t <= minutes; t++ {
		k := sh.churnPerMinute
		if t == minutes {
			k = sh.tail
		}
		for j := 0; j < k; j++ {
			i := rng.Intn(len(live))
			in.plan[t] = append(in.plan[t], replacement{victim: live[i], family: int8(rng.Intn(families))})
			live[i] = int32(next)
			in.cal.add(rng, next, t+1)
			next++
		}
	}
	return in
}

// replayer replays inputs against a stack, through the tracer when one is
// set, timing every call and checking every answer.
type replayer struct {
	r        *run
	sh       shape
	in       inputs
	st       *stack
	tr       *tracer
	variants [][]string
	fam      []int8 // family of each slot issued
	alive    []bool

	invokeNs, stepMs, regUs, deregUs samples
	issued, departed                 int
	// Per minute of the main loop: invocations served and wall time.
	minuteInv, minuteS samples
}

// rate is the loop's invocation throughput: the median over latencyWindows
// runs of minutes of each run's invocations per wall second.
func (d *replayer) rate() float64 {
	n := len(d.minuteS)
	w := min(latencyWindows, n)
	var per samples
	for i := 0; i < w; i++ {
		var inv, sec float64
		for j := i * n / w; j < (i+1)*n/w; j++ {
			inv += d.minuteInv[j]
			sec += d.minuteS[j]
		}
		per = append(per, inv/sec)
	}
	return per.median()
}

func newReplayer(r *run, sh shape, in inputs, st *stack, tr *tracer) *replayer {
	d := &replayer{r: r, sh: sh, in: in, st: st, tr: tr, variants: familyVariants(st.cat)}
	for _, f := range st.asg {
		d.fam = append(d.fam, int8(f))
		d.alive = append(d.alive, true)
	}
	return d
}

func (d *replayer) step() error {
	if d.tr != nil {
		return d.tr.root(spStep, d.st.rt.Step)
	}
	return d.st.rt.Step()
}

func (d *replayer) register(name string, family int) (slot int, err error) {
	if d.tr == nil {
		return d.st.rt.Register(name, family)
	}
	err = d.tr.root(spRegister, func() error { slot, err = d.st.rt.Register(name, family); return err })
	return slot, err
}

func (d *replayer) deregister(name string) error {
	if d.tr == nil {
		return d.st.rt.Deregister(name)
	}
	return d.tr.root(spDeregister, func() error { return d.st.rt.Deregister(name) })
}

// minute issues minute t's invocations, applies its replacements and
// closes it with a Step.
func (d *replayer) minute(t int) {
	rt, r := d.st.rt, d.r
	began, issued := time.Now(), d.issued
	defer func() {
		d.minuteInv = append(d.minuteInv, float64(d.issued-issued))
		d.minuteS = append(d.minuteS, time.Since(began).Seconds())
	}()
	for _, a := range d.in.cal[t] {
		fn := int(a.fn)
		if !d.alive[fn] {
			continue
		}
		for k := int32(0); k < a.count; k++ {
			t0 := time.Now()
			inv, err := rt.Invoke(fn)
			d.invokeNs = append(d.invokeNs, float64(time.Since(t0)))
			r.op(err)
			if err == nil {
				d.issued++
				if err := checkFamily(d.variants, int(d.fam[fn]), fn, inv.Variant); err != nil {
					r.check(false, "%v", err)
				}
			}
		}
	}
	d.replace(d.in.plan[t])
	t0 := time.Now()
	err := d.step()
	d.stepMs = append(d.stepMs, float64(time.Since(t0))/1e6)
	r.op(err)
}

// replace retires each victim and registers a newly named function in its
// place, checking that the live population holds, that every newcomer
// gets a fresh slot and that a departed slot refuses invocations.
func (d *replayer) replace(reps []replacement) {
	rt, r := d.st.rt, d.r
	for _, rep := range reps {
		victim := int(rep.victim)
		name := fnName(victim, d.sh.live)
		t0 := time.Now()
		err := d.deregister(name)
		d.deregUs = append(d.deregUs, float64(time.Since(t0))/1e3)
		r.op(err)
		if err == nil {
			d.alive[victim] = false
			d.departed++
		}
		want := rt.NumFunctions()
		newName := fnName(want, d.sh.live)
		t0 = time.Now()
		slot, err := d.register(newName, int(rep.family))
		d.regUs = append(d.regUs, float64(time.Since(t0))/1e3)
		r.op(err)
		if err == nil {
			r.check(slot == want, "registration %q got slot %d, want fresh slot %d", newName, slot, want)
			d.fam = append(d.fam, rep.family)
			d.alive = append(d.alive, true)
		}
	}
	if len(reps) == 0 {
		return
	}
	r.check(rt.NumActive() == d.sh.live, "%d functions active after replacements, want %d", rt.NumActive(), d.sh.live)
	victim := int(reps[len(reps)-1].victim)
	_, err := rt.Invoke(victim)
	r.check(errors.Is(err, runtime.ErrDeregistered), "invoking departed slot %d: %v, want ErrDeregistered", victim, err)
}

// checkLedger checks the runtime's counters against what was issued.
func (d *replayer) checkLedger(s runtime.Stats) {
	d.r.check(s.Invocations == d.issued, "Stats.Invocations = %d, benchmark issued %d", s.Invocations, d.issued)
	d.r.check(s.WarmStarts+s.ColdStarts == s.Invocations, "warm %d + cold %d != invocations %d",
		s.WarmStarts, s.ColdStarts, s.Invocations)
}

func (d *replayer) liveNames() []string {
	var names []string
	for s, ok := range d.alive {
		if ok {
			names = append(names, fnName(s, d.sh.live))
		}
	}
	return names
}

func (d *replayer) pickLive(rng *rand.Rand) int {
	for {
		if fn := rng.Intn(len(d.alive)); d.alive[fn] {
			return fn
		}
	}
}

// runInProcess drives an in-process replica through sh: each minute it
// issues the minute's invocations, applies the minute's replacements and
// steps the runtime; a lifecycle tail follows the main loop.
func runInProcess(r *run, sh shape) error {
	minutes := sh.minutesPerSecond * r.seconds
	in := makeInputs(r.seed, sh, minutes, len(pulse.Catalog().Families))
	r.phase("inputs ready: %d functions, %d minutes", sh.live, minutes)

	var tr *tracer
	if r.traced {
		tr = newTracer(true)
	}
	// Set-up: build the stack setupReps times (once when traced, with
	// per-component memory), keeping the last.
	var (
		st     *stack
		setups samples
		heap0  uint64
	)
	reps := setupReps
	if r.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		heap0 = restingHeap()
		t0 := time.Now()
		s, err := buildStack(sh.live, tr, r.traced)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	defer st.close()
	r.phase("set up")

	d := newReplayer(r, sh, in, st, tr)
	down0, peak0 := st.pulse.TotalDowngrades(), st.pulse.PeakMinutes()
	// A churn run's retained memory is the heap growth over the second
	// half of its loop: by then the live population's plans and rings have
	// filled, so what grows is what departures leave behind.
	var heapMid uint64
	var departedMid int
	for t := 0; t < minutes; t++ {
		if t == minutes/2 {
			heapMid, departedMid = restingHeap(), d.departed
		}
		d.minute(t)
	}
	downgrades, peaks := st.pulse.TotalDowngrades()-down0, st.pulse.PeakMinutes()-peak0
	stats := st.rt.Stats()
	d.checkLedger(stats)
	r.phase("main loop done: %d invocations, %d downgrades, %d peak minutes", d.issued, downgrades, peaks)

	// The resting heap after the main loop is what the stack keeps once
	// plans, rings and ledgers have filled. Retained memory brackets the
	// departures: the lifecycle tail, or the second half of a churn run.
	heapLoop := restingHeap()
	heapBefore, departedBefore := heapLoop, d.departed
	if sh.tail == 0 {
		heapBefore, departedBefore = heapMid, departedMid
	}
	tail := in.plan[minutes]
	if len(tail) > tailWarmup {
		// The first replacements grow every slot-indexed array past its
		// construction size, a one-off cost that is left untimed.
		nReg, nDereg := len(d.regUs), len(d.deregUs)
		d.replace(tail[:tailWarmup])
		d.regUs, d.deregUs = d.regUs[:nReg], d.deregUs[:nDereg]
		tail = tail[tailWarmup:]
	}
	d.replace(tail)
	heapEnd := restingHeap()
	r.phase("tail done: %d departed", d.departed)

	e2e := func(m *metrics, prefix string) {
		m.set(prefix+"serve_rps", d.rate(), "req/s", d.issued)
		m.win(prefix+"serve_p50_us", d.invokeNs, latencyWindows, 50, 1e-3, "us")
		m.win(prefix+"serve_p90_us", d.invokeNs, latencyWindows, 90, 1e-3, "us")
		m.win(prefix+"step_p50_ms", d.stepMs, shortWindows, 50, 1, "ms")
		m.win(prefix+"step_p90_ms", d.stepMs, shortWindows, 90, 1, "ms")
		m.win(prefix+"register_p50_us", d.regUs, latencyWindows, 50, 1, "us")
		m.win(prefix+"deregister_p50_us", d.deregUs, latencyWindows, 50, 1, "us")
	}
	if !r.traced {
		m := r.m
		m.pct("setup_s", setups, 50, 1, "s")
		m.set("ok_pct", okPct(r), "%", r.attempted)
		e2e(m, "")
		// Per slot issued before the heap reading: the live population
		// plus what the main loop retired.
		slots := sh.live + d.departed - len(in.plan[minutes])
		m.set("bytes_per_fn", float64(int64(heapLoop)-int64(heap0))/float64(slots), "B", slots)
		departed := d.departed - departedBefore
		m.set("retained_bytes_per_departed", float64(int64(heapEnd)-int64(heapBefore))/float64(departed), "B", departed)
		paperMetrics(m, stats)
		return nil
	}

	e2e(r.m, "traced.")
	lp := layerProbe{
		tr: tr, st: st, minutes: minutes, downgrades: downgrades, peaks: peaks,
		invokeNs: d.invokeNs, liveNames: d.liveNames(), rng: rand.New(rand.NewSource(r.seed + 1)),
	}
	return lp.report(r, func(fn int) int { return int(d.fam[fn]) }, d.pickLive)
}

func okPct(r *run) float64 {
	return 100 * float64(r.attempted-r.failed) / float64(r.attempted)
}

// paperMetrics sets the paper's three metrics from the runtime's ledger.
func paperMetrics(m *metrics, s runtime.Stats) {
	m.set("keepalive_usd", s.KeepAliveCostUSD, "USD", s.Minute)
	m.set("accuracy_pct", s.MeanAccuracyPct(), "%", s.Invocations)
	m.set("service_s", s.TotalServiceSec/float64(s.Invocations), "s", s.Invocations)
}
