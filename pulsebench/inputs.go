package main

import (
	"math/rand"

	"github.com/pulse-serverless/pulse/internal/trace"
)

// Workload inputs. Everything here is a pure function of the seed, so the
// same seed gives the same invocations, registrations and departures.

// sparseArchetype draws one function's behaviour from a mix of the trace
// package's archetypes tuned so that about 1% of a population is invoked in
// any minute. Periodic functions are what PULSE learns to keep alive ahead
// of time; Poisson, sporadic and bursty ones keep the plans honest and
// produce the keep-alive peaks that trigger Algorithm 2.
func sparseArchetype(rng *rand.Rand) trace.Archetype {
	switch k := rng.Intn(10); {
	case k < 4:
		return trace.Periodic{Period: 30 + rng.Intn(121), Jitter: rng.Intn(3)}
	case k < 7:
		return trace.Poisson{Rate: 0.005 + 0.015*rng.Float64()}
	case k < 9:
		return trace.Sporadic{MeanGap: 40 + rng.Intn(361)}
	default:
		return trace.Bursty{BurstsPerDay: 3, BurstLen: 5, BurstRate: 1.5, QuietRate: 0.001}
	}
}

// phaseSpread is the span of random phase offsets: each function's series
// starts at a random point of its archetype, so periodic functions with
// equal periods do not all fire on the same minute.
const phaseSpread = 240

// arrival is one minute's invocations of one function.
type arrival struct {
	fn    int32
	count int32
}

// calendar holds the invocations of a population, bucketed by minute.
type calendar [][]arrival

func newCalendar(minutes int) calendar { return make(calendar, minutes) }

// add draws an archetype for fn and books its invocations from minute
// from onwards.
func (c calendar) add(rng *rand.Rand, fn, from int) {
	if from >= len(c) {
		return
	}
	horizon := len(c) - from
	off := rng.Intn(phaseSpread)
	counts := sparseArchetype(rng).Generate(rng, horizon+off)[off:]
	for t, n := range counts {
		if n > 0 {
			c[from+t] = append(c[from+t], arrival{fn: int32(fn), count: int32(n)})
		}
	}
}

// population books n functions from minute 0.
func (c calendar) population(rng *rand.Rand, n int) {
	for fn := 0; fn < n; fn++ {
		c.add(rng, fn, 0)
	}
}

// mixDays is how many generated days serveMix averages each archetype's
// rate over.
const mixDays = 28

// serveMix returns the 12 built-in functions' invocation weights: the mean
// rate of the archetype each one stands for, over mixDays generated days.
// The mix is a property of the workload, not of the seed, which draws only
// the request sequence: with weights drawn from the seed, the heavy-tailed
// and bursty archetypes' day totals moved the mix enough to put some seeds
// in a different keep-alive regime (0.58 times the cost of the others).
func serveMix() []float64 {
	arch := trace.AzureLikeArchetypes()
	w := make([]float64, len(arch))
	for i, a := range arch {
		rng := rand.New(rand.NewSource(int64(i)))
		total := 0
		for _, n := range a.Generate(rng, mixDays*trace.MinutesPerDay) {
			total += n
		}
		w[i] = float64(total) + 1 // every function stays reachable
	}
	return w
}

// picker draws indexes in proportion to fixed weights.
type picker struct{ cum []float64 }

func newPicker(w []float64) picker {
	cum := make([]float64, len(w))
	s := 0.0
	for i, x := range w {
		s += x
		cum[i] = s
	}
	return picker{cum}
}

func (p picker) pick(rng *rand.Rand) int {
	x := rng.Float64() * p.cum[len(p.cum)-1]
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
