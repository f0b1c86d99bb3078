package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// Method sets for fakes covering every combination of the optional policy
// interfaces.
type (
	pBase struct{}
	pA    struct{}
	pD    struct{}
	pC    struct{}
)

func (pBase) Name() string                             { return "fake" }
func (pBase) KeepAlive(int) []int                      { return nil }
func (pBase) ColdVariant(int, int) int                 { return 0 }
func (pBase) RecordInvocations(int, []int)             {}
func (pA) RecordInvocationsSparse(int, []int, []int32) {}
func (pA) ActiveSlots() []int32                        { return nil }
func (pD) RegisterFunction(string, int) (int, error)   { return 0, nil }
func (pD) DeregisterFunction(string) error             { return nil }
func (pC) Close() error                                { return nil }

func policyCombos() []cluster.Policy {
	return []cluster.Policy{
		pBase{},
		struct {
			pBase
			pA
		}{},
		struct {
			pBase
			pD
		}{},
		struct {
			pBase
			pC
		}{},
		struct {
			pBase
			pA
			pD
		}{},
		struct {
			pBase
			pA
			pC
		}{},
		struct {
			pBase
			pD
			pC
		}{},
		struct {
			pBase
			pA
			pD
			pC
		}{},
	}
}

func policyKind(p cluster.Policy) [3]bool {
	_, a := p.(cluster.ActiveSetPolicy)
	_, d := p.(cluster.DynamicPolicy)
	_, c := p.(io.Closer)
	return [3]bool{a, d, c}
}

func TestPolicyWrapperKeepsInterfaceSet(t *testing.T) {
	tr := newTracer(true)
	seen := map[[3]bool]bool{}
	for _, p := range policyCombos() {
		want := policyKind(p)
		seen[want] = true
		if got := policyKind(tr.wrapPolicy(p)); got != want {
			t.Errorf("wrapped %T implements (active-set, dynamic, closer) = %v, want %v", p, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("fakes cover %d of 8 interface combinations", len(seen))
	}
}

func observerCombos() []telemetry.Observer {
	n := telemetry.Nop{}
	return []telemetry.Observer{
		n, // telemetry.WantsSelf special-cases Nop
		struct {
			telemetry.Observer
			telemetry.SelfObserver
			telemetry.LifecycleObserver
		}{n, n, n},
		struct {
			telemetry.Observer
			telemetry.SelfObserver
		}{n, n},
		struct {
			telemetry.Observer
			telemetry.LifecycleObserver
		}{n, n},
		struct{ telemetry.Observer }{n},
	}
}

func observerKind(o telemetry.Observer) [2]bool {
	_, s := o.(telemetry.SelfObserver)
	_, l := o.(telemetry.LifecycleObserver)
	return [2]bool{s, l}
}

func TestObserverWrapperKeepsInterfaceSet(t *testing.T) {
	tr := newTracer(true)
	seen := map[[2]bool]bool{}
	for _, o := range observerCombos() {
		want := observerKind(o)
		seen[want] = true
		w := tr.wrapObserver(obsTelemetry, o)
		if got := observerKind(w); got != want {
			t.Errorf("wrapped %T implements (self, lifecycle) = %v, want %v", o, got, want)
		}
		// Wrapping each child keeps the fan-out's answer to WantsSelf.
		bare := telemetry.Multi(o, struct{ telemetry.Observer }{telemetry.Nop{}})
		wrapped := telemetry.Multi(w, tr.wrapObserver(obsProvenance, struct{ telemetry.Observer }{telemetry.Nop{}}))
		if telemetry.WantsSelf(bare) != telemetry.WantsSelf(wrapped) {
			t.Errorf("WantsSelf changed by wrapping %T", o)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("fakes cover %d of 4 interface combinations", len(seen))
	}
}

// outcome is everything a traced run must reproduce from an untraced one.
type outcome struct {
	stats   runtime.Stats
	calls   [numObs][numMethods]int64
	spans   [numSpanKinds]int
	active  int
	minutes int
}

// replay runs a small copy of a workload shape through a stack built with
// tr (nil for no wrappers at all) and returns its outcome.
func replay(t *testing.T, sh shape, minutes int, tr *tracer) outcome {
	t.Helper()
	r := &run{workload: sh.name, m: newMetrics(), began: time.Now()}
	in := makeInputs(7, sh, minutes, len(pulse.Catalog().Families))
	st, err := buildStack(sh.live, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	d := newReplayer(r, sh, in, st, tr)
	for m := 0; m < minutes; m++ {
		d.minute(m)
	}
	d.replace(in.plan[minutes])
	if r.failed > 0 || len(r.problems) > 0 {
		t.Fatalf("%s: %d of %d operations failed, checks: %v", sh.name, r.failed, r.attempted, r.problems)
	}
	out := outcome{stats: st.rt.Stats(), active: st.rt.NumActive(), minutes: minutes}
	if tr != nil {
		for o := range tr.obs {
			for m := range tr.obs[o].calls {
				out.calls[o][m] = tr.obs[o].calls[m].Load()
			}
		}
		for _, s := range tr.spans {
			out.spans[s.kind]++
		}
	}
	return out
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	shapes := []struct {
		sh      shape
		minutes int
	}{
		{shape{name: "fleet", live: 3000, tail: 40}, 40},
		{shape{name: "churn", live: 800, churnPerMinute: 16}, 30},
	}
	for _, c := range shapes {
		t.Run(c.sh.name, func(t *testing.T) {
			bare := replay(t, c.sh, c.minutes, nil)
			counted := replay(t, c.sh, c.minutes, newTracer(false))
			timed := replay(t, c.sh, c.minutes, newTracer(true))
			if !reflect.DeepEqual(bare.stats, counted.stats) || !reflect.DeepEqual(bare.stats, timed.stats) {
				t.Fatalf("Stats differ:\n bare    %+v\n counted %+v\n timed   %+v", bare.stats, counted.stats, timed.stats)
			}
			if bare.stats.Invocations == 0 || bare.stats.KeepAliveCostUSD == 0 {
				t.Fatalf("replay did no work: %+v", bare.stats)
			}
			for o := range counted.calls {
				for m := range counted.calls[o] {
					if counted.calls[o][m] != timed.calls[o][m] {
						t.Errorf("%s.%s: %d calls traced, %d counted", obsNames[o], methodNames[m], timed.calls[o][m], counted.calls[o][m])
					}
				}
			}
			if counted.spans != timed.spans {
				t.Errorf("span counts differ: counted %v, timed %v", counted.spans, timed.spans)
			}
			if counted.calls[obsTelemetry][mKeepAlive] == 0 || counted.calls[obsProvenance][mRegister] == 0 {
				t.Errorf("wrappers saw no keep-alive or register samples: %v", counted.calls)
			}
			if counted.spans[spStep] != c.minutes {
				t.Errorf("%d Step spans for %d minutes", counted.spans[spStep], c.minutes)
			}
		})
	}
}

func TestPercentilesAreOrderStatistics(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}
