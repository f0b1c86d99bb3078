package main

import (
	"fmt"
	goruntime "runtime"
	"slices"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// stack is an in-process replica of pulsed's default wiring: telemetry with
// the broadcaster's event tap, the provenance recorder at the default
// window, the sharded PULSE controller and the epoch runtime, all sharing
// one observer chain, plus the instrumented HTTP API. Attribution, alerts
// and the invocation tracer stay off, as they do in pulsed by default.
type stack struct {
	cat   *models.Catalog
	asg   models.Assignment
	tel   *telemetry.Telemetry
	prov  *provenance.Recorder
	pulse *core.Pulse
	rt    *runtime.Runtime
	api   *runtime.API

	// mem is the live-heap delta of each component as it was built, in the
	// order telemetry, provenance, core, runtime; zero unless measured.
	mem [4]uint64
}

// Component indexes into stack.mem.
const (
	memTelemetry = iota
	memProvenance
	memCore
	memRuntime
)

// buildStack wires an n-function replica. A non-nil tracer wraps every
// observer in the chain and the controller in timing wrappers. With
// measureMem, the heap is collected twice before and after each component
// so stack.mem holds what each one retains.
func buildStack(n int, tr *tracer, measureMem bool) (*stack, error) {
	s := &stack{cat: pulse.Catalog()}
	s.asg = pulse.UniformAssignment(s.cat, n)
	names := identity.DefaultNames(n)

	var last uint64
	if measureMem {
		last = restingHeap()
	}
	mark := func(i int) {
		if measureMem {
			now := restingHeap()
			if now > last {
				s.mem[i] = now - last
			}
			last = now
		}
	}

	var err error
	if s.tel, err = telemetry.New(telemetry.Config{EventCapacity: telemetry.DefaultEventCapacity}); err != nil {
		return nil, err
	}
	stream := alert.NewBroadcaster()
	s.tel.Events().Tap(stream.EventTap())
	mark(memTelemetry)

	if s.prov, err = provenance.NewRecorder(provenance.RecorderConfig{
		Catalog:    s.cat,
		Assignment: s.asg,
		Names:      names,
		Window:     provenance.DefaultWindow,
	}); err != nil {
		return nil, err
	}
	mark(memProvenance)

	var obs telemetry.Observer
	if tr != nil {
		obs = telemetry.Multi(tr.wrapObserver(obsTelemetry, s.tel), tr.wrapObserver(obsProvenance, s.prov))
	} else {
		obs = telemetry.Multi(s.tel, s.prov)
	}
	if s.pulse, err = core.New(core.Config{Catalog: s.cat, Assignment: s.asg, Observer: obs}); err != nil {
		return nil, err
	}
	mark(memCore)

	var policy cluster.Policy = s.pulse
	if tr != nil {
		policy = tr.wrapPolicy(s.pulse)
	}
	if s.rt, err = runtime.New(runtime.Config{
		Catalog:    s.cat,
		Assignment: s.asg,
		Policy:     policy,
		Clock:      runtime.WallClock{Compression: serveCompress},
		Observer:   obs,
	}); err != nil {
		s.pulse.Close()
		return nil, err
	}
	if s.api, err = runtime.NewInstrumentedAPI(s.rt, s.tel); err != nil {
		s.rt.Close()
		return nil, err
	}
	s.api.AttachProvenance(s.prov)
	s.api.AttachStream(stream)
	s.api.AttachAlerts(nil)
	mark(memRuntime)
	return s, nil
}

func (s *stack) close() { s.rt.Close() }

// familyVariants lists the variant names of each model family, the set a
// served invocation's Variant must come from.
func familyVariants(cat *models.Catalog) [][]string {
	out := make([][]string, len(cat.Families))
	for i, f := range cat.Families {
		for _, v := range f.Variants {
			out[i] = append(out[i], v.Name)
		}
	}
	return out
}

// restingHeap collects twice, so objects freed by finalizers in the first
// cycle are gone too, and returns the live heap.
func restingHeap() uint64 {
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkFamily reports an error unless variant belongs to the family.
func checkFamily(variants [][]string, family int, fn int, variant string) error {
	if family < 0 || family >= len(variants) || !slices.Contains(variants[family], variant) {
		return fmt.Errorf("function %d served variant %q outside family %d", fn, variant, family)
	}
	return nil
}
