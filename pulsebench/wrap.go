package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// Timing wrappers for the traced run. They sit between the layers of the
// replica — runtime → policy (internal/core) and runtime/core → each
// observer of the chain (internal/telemetry, internal/provenance) — and
// time every call that crosses the boundary. A wrapper implements exactly
// the optional interfaces the wrapped value implements, so the type
// assertions the layers make on their collaborators (ActiveSetPolicy,
// DynamicPolicy, io.Closer, SelfObserver, LifecycleObserver, WantsSelf)
// choose the same code paths with and without tracing.

// spanKind names a layer boundary that gets a span of its own.
type spanKind uint8

const (
	spStep spanKind = iota // runtime.Runtime.Step
	spRegister
	spDeregister
	spRecord // core RecordInvocations[Sparse]
	spKeepAlive
	spCoreRegister
	spCoreDeregister
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"runtime.Step", "runtime.Register", "runtime.Deregister",
	"core.RecordInvocations", "core.KeepAlive", "core.RegisterFunction", "core.DeregisterFunction",
}

// span is one call across a layer boundary. child is the part of the span
// covered by its child spans and by observer calls made inside it, so
// end-start-child is the span's self time.
type span struct {
	kind       spanKind
	parent     int32 // index into tracer.spans, -1 for a root
	start, end int64 // ns since tracer.origin
	child      int64
}

// obsID names an observer of the default chain.
type obsID int

const (
	obsTelemetry obsID = iota
	obsProvenance
	numObs
)

var obsNames = [numObs]string{"telemetry", "provenance"}

// obsMethod names an Observer (or optional extension) method.
type obsMethod int

const (
	mInvocation obsMethod = iota
	mKeepAlive
	mMinute
	mSchedule
	mPeak
	mDowngrade
	mStep
	mScan
	mFlush
	mRegister
	mDeregister
	numMethods
)

var methodNames = [numMethods]string{
	"ObserveInvocation", "ObserveKeepAlive", "ObserveMinute", "ObserveSchedule", "ObservePeak",
	"ObserveDowngrade", "ObserveStep", "ObserveScan", "ObserveFlush", "ObserveRegister", "ObserveDeregister",
}

// obsStats accumulates one observer's calls.
type obsStats struct {
	calls [numMethods]atomic.Int64
	ns    [numMethods]atomic.Int64
	// barrierNs is the observer time spent inside Step spans.
	barrierNs atomic.Int64

	mu          sync.Mutex
	invokeNs    []float64 // ObserveInvocation durations
	lifecycleNs []float64 // ObserveRegister/ObserveDeregister durations

	// lastVariant and the counters below are touched only by keep-alive
	// samples, which arrive serialized under the runtime's write window.
	lastVariant []int32
	kaSamples   int64
	kaChanged   int64
}

// tracer records spans and observer call statistics. Barrier-side calls
// (Step, Register, Deregister and everything they call) are serialized by
// rootMu; invocation-side observer calls may arrive from any goroutine and
// touch only atomics and the mutex-guarded sample slices.
type tracer struct {
	origin time.Time
	// timed is false for a counting-only tracer: it still counts every
	// call, but reads no clock, so it shows what the traced run must
	// reproduce without perturbing timing.
	timed bool

	rootMu sync.Mutex
	spans  []span
	open   []int32 // stack of open spans; open[0] is the root
	obs    [numObs]*obsStats

	// After each KeepAlive: the active-set size, and its share of the
	// registered functions.
	activeSlots samples
	activeRatio samples
}

func newTracer(timed bool) *tracer {
	t := &tracer{origin: time.Now(), timed: timed}
	for i := range t.obs {
		t.obs[i] = &obsStats{}
	}
	return t
}

func (t *tracer) now() int64 {
	if !t.timed {
		return 0
	}
	return int64(time.Since(t.origin))
}

// root runs fn as a root span of the given kind.
func (t *tracer) root(kind spanKind, fn func() error) error {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	return t.child(kind, fn)
}

// child runs fn as a span nested in the open one (or as a root when none
// is open). Callers hold rootMu, directly or through the root call that
// reached this layer.
func (t *tracer) child(kind spanKind, fn func() error) error {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: parent, start: t.now()})
	t.open = append(t.open, idx)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[idx]
	s.end = t.now()
	if parent >= 0 {
		t.spans[parent].child += s.end - s.start
	}
	return err
}

// observed accounts one barrier-side observer call of duration d to the
// open span.
func (t *tracer) observed(o obsID, m obsMethod, d int64) {
	st := t.obs[o]
	st.calls[m].Add(1)
	st.ns[m].Add(d)
	if n := len(t.open); n > 0 {
		top := t.open[n-1]
		t.spans[top].child += d
		if t.spans[t.open[0]].kind == spStep {
			st.barrierNs.Add(d)
		}
	}
}

// timeCall runs fn and returns its duration (zero when untimed).
func (t *tracer) timeCall(fn func()) int64 {
	if !t.timed {
		fn()
		return 0
	}
	t0 := time.Now()
	fn()
	return int64(time.Since(t0))
}

// spanSet holds, per span kind, each span's duration and self time in ns.
type spanSet struct {
	dur, self [numSpanKinds]samples
}

func (t *tracer) spanSamples() spanSet {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	var out spanSet
	for _, s := range t.spans {
		d := float64(s.end - s.start)
		out.dur[s.kind] = append(out.dur[s.kind], d)
		out.self[s.kind] = append(out.self[s.kind], d-float64(s.child))
	}
	return out
}

// writeSpans writes the recorded spans as JSON lines, one per span, under
// buildDir/spans. Each line carries the span's index, its parent's (-1 for
// a root), its layer boundary, its start and end in ns since the run began,
// and its self time. One line per observer method follows with its call
// count and total time.
func (t *tracer) writeSpans(r *run) error {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n",
			i, s.parent, spanNames[s.kind], s.start, s.end, s.end-s.start-s.child)
	}
	for o, st := range t.obs {
		for m := range st.calls {
			if n := st.calls[m].Load(); n > 0 {
				fmt.Fprintf(w, "{\"observer\":%q,\"method\":%q,\"calls\":%d,\"ns\":%d}\n",
					obsNames[o], methodNames[m], n, st.ns[m].Load())
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- policy wrapper ----

// timedPolicy wraps the controller. ColdVariant is called concurrently by
// invocations and is passed through untimed.
type timedPolicy struct {
	t *tracer
	p cluster.Policy
}

func (w *timedPolicy) Name() string              { return w.p.Name() }
func (w *timedPolicy) ColdVariant(t, fn int) int { return w.p.ColdVariant(t, fn) }

func (w *timedPolicy) KeepAlive(t int) []int {
	var out []int
	_ = w.t.child(spKeepAlive, func() error { out = w.p.KeepAlive(t); return nil })
	if asp, ok := w.p.(cluster.ActiveSetPolicy); ok {
		active := float64(len(asp.ActiveSlots()))
		w.t.activeSlots = append(w.t.activeSlots, active)
		if reg, ok := w.p.(interface{ NumActive() int }); ok && reg.NumActive() > 0 {
			w.t.activeRatio = append(w.t.activeRatio, active/float64(reg.NumActive()))
		}
	}
	return out
}

func (w *timedPolicy) RecordInvocations(t int, counts []int) {
	_ = w.t.child(spRecord, func() error { w.p.RecordInvocations(t, counts); return nil })
}

type activeSetMethods struct{ w *timedPolicy }

func (a activeSetMethods) RecordInvocationsSparse(t int, counts []int, invoked []int32) {
	_ = a.w.t.child(spRecord, func() error {
		a.w.p.(cluster.ActiveSetPolicy).RecordInvocationsSparse(t, counts, invoked)
		return nil
	})
}

func (a activeSetMethods) ActiveSlots() []int32 {
	return a.w.p.(cluster.ActiveSetPolicy).ActiveSlots()
}

type dynamicMethods struct{ w *timedPolicy }

func (d dynamicMethods) RegisterFunction(name string, family int) (slot int, err error) {
	err = d.w.t.child(spCoreRegister, func() error {
		slot, err = d.w.p.(cluster.DynamicPolicy).RegisterFunction(name, family)
		return err
	})
	return slot, err
}

func (d dynamicMethods) DeregisterFunction(name string) error {
	return d.w.t.child(spCoreDeregister, func() error {
		return d.w.p.(cluster.DynamicPolicy).DeregisterFunction(name)
	})
}

type closeMethods struct{ w *timedPolicy }

func (c closeMethods) Close() error { return c.w.p.(io.Closer).Close() }

// wrapPolicy returns p behind a timing wrapper that implements
// cluster.ActiveSetPolicy, cluster.DynamicPolicy and io.Closer exactly
// when p does.
func (t *tracer) wrapPolicy(p cluster.Policy) cluster.Policy {
	w := &timedPolicy{t: t, p: p}
	a, d, c := activeSetMethods{w}, dynamicMethods{w}, closeMethods{w}
	_, isA := p.(cluster.ActiveSetPolicy)
	_, isD := p.(cluster.DynamicPolicy)
	_, isC := p.(io.Closer)
	switch {
	case isA && isD && isC:
		return struct {
			*timedPolicy
			activeSetMethods
			dynamicMethods
			closeMethods
		}{w, a, d, c}
	case isA && isD:
		return struct {
			*timedPolicy
			activeSetMethods
			dynamicMethods
		}{w, a, d}
	case isA && isC:
		return struct {
			*timedPolicy
			activeSetMethods
			closeMethods
		}{w, a, c}
	case isD && isC:
		return struct {
			*timedPolicy
			dynamicMethods
			closeMethods
		}{w, d, c}
	case isA:
		return struct {
			*timedPolicy
			activeSetMethods
		}{w, a}
	case isD:
		return struct {
			*timedPolicy
			dynamicMethods
		}{w, d}
	case isC:
		return struct {
			*timedPolicy
			closeMethods
		}{w, c}
	}
	return w
}

// ---- observer wrapper ----

// timedObserver wraps one observer of the chain.
type timedObserver struct {
	t  *tracer
	id obsID
	o  telemetry.Observer
}

func (w *timedObserver) barrier(m obsMethod, fn func()) {
	w.t.observed(w.id, m, w.t.timeCall(fn))
}

func (w *timedObserver) ObserveInvocation(s telemetry.InvocationSample) {
	d := w.t.timeCall(func() { w.o.ObserveInvocation(s) })
	st := w.t.obs[w.id]
	st.calls[mInvocation].Add(1)
	st.ns[mInvocation].Add(d)
	if w.t.timed {
		st.mu.Lock()
		st.invokeNs = append(st.invokeNs, float64(d))
		st.mu.Unlock()
	}
}

func (w *timedObserver) ObserveKeepAlive(s telemetry.KeepAliveSample) {
	st := w.t.obs[w.id]
	for len(st.lastVariant) <= s.Function {
		st.lastVariant = append(st.lastVariant, cluster.NoVariant)
	}
	st.kaSamples++
	if st.lastVariant[s.Function] != int32(s.Variant) {
		st.kaChanged++
		st.lastVariant[s.Function] = int32(s.Variant)
	}
	w.barrier(mKeepAlive, func() { w.o.ObserveKeepAlive(s) })
}

func (w *timedObserver) ObserveMinute(s telemetry.MinuteSample) {
	w.barrier(mMinute, func() { w.o.ObserveMinute(s) })
}

func (w *timedObserver) ObserveSchedule(s telemetry.ScheduleSample) {
	w.barrier(mSchedule, func() { w.o.ObserveSchedule(s) })
}

func (w *timedObserver) ObservePeak(s telemetry.PeakSample) {
	w.barrier(mPeak, func() { w.o.ObservePeak(s) })
}

func (w *timedObserver) ObserveDowngrade(s telemetry.DowngradeSample) {
	w.barrier(mDowngrade, func() { w.o.ObserveDowngrade(s) })
}

type selfMethods struct{ w *timedObserver }

func (m selfMethods) ObserveStep(s telemetry.StepSample) {
	m.w.barrier(mStep, func() { m.w.o.(telemetry.SelfObserver).ObserveStep(s) })
}

func (m selfMethods) ObserveScan(s telemetry.ScanSample) {
	m.w.barrier(mScan, func() { m.w.o.(telemetry.SelfObserver).ObserveScan(s) })
}

func (m selfMethods) ObserveFlush(s telemetry.FlushSample) {
	m.w.barrier(mFlush, func() { m.w.o.(telemetry.SelfObserver).ObserveFlush(s) })
}

type lifecycleMethods struct{ w *timedObserver }

func (m lifecycleMethods) lifecycle(meth obsMethod, fn func()) {
	d := m.w.t.timeCall(fn)
	m.w.t.observed(m.w.id, meth, d)
	if m.w.t.timed {
		st := m.w.t.obs[m.w.id]
		st.mu.Lock()
		st.lifecycleNs = append(st.lifecycleNs, float64(d))
		st.mu.Unlock()
	}
}

func (m lifecycleMethods) ObserveRegister(s telemetry.RegisterSample) {
	m.lifecycle(mRegister, func() { m.w.o.(telemetry.LifecycleObserver).ObserveRegister(s) })
}

func (m lifecycleMethods) ObserveDeregister(s telemetry.DeregisterSample) {
	m.lifecycle(mDeregister, func() { m.w.o.(telemetry.LifecycleObserver).ObserveDeregister(s) })
}

// wrapObserver returns o behind a timing wrapper that implements
// telemetry.SelfObserver and telemetry.LifecycleObserver exactly when o
// does. Wrap each child of a telemetry.Multi separately: a wrapper around
// the fan-out itself would hide it from telemetry.WantsSelf.
func (t *tracer) wrapObserver(id obsID, o telemetry.Observer) telemetry.Observer {
	if _, ok := o.(telemetry.Nop); ok {
		// Nothing to time, and WantsSelf answers false for Nop alone.
		return o
	}
	w := &timedObserver{t: t, id: id, o: o}
	s, l := selfMethods{w}, lifecycleMethods{w}
	_, isS := o.(telemetry.SelfObserver)
	_, isL := o.(telemetry.LifecycleObserver)
	switch {
	case isS && isL:
		return struct {
			*timedObserver
			selfMethods
			lifecycleMethods
		}{w, s, l}
	case isS:
		return struct {
			*timedObserver
			selfMethods
		}{w, s}
	case isL:
		return struct {
			*timedObserver
			lifecycleMethods
		}{w, l}
	}
	return w
}
