package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/netmr"
	"ipso/internal/runner"
	"ipso/internal/workload"
)

// Straggler model parameters: one synchronized wave of n unit tasks on n
// workers, each inflated by a heavy-tailed injected latency — the
// regime where the paper's statistic speedup (Eq. 7/8) is governed by
// E[max Tp,i(n)], so a single straggler stalls the whole barrier.
const (
	stragglerBaseTask   = 1.0  // T0: intrinsic task time, model seconds
	stragglerQuantile   = 0.75 // speculation reference quantile (master default)
	stragglerMultiplier = 1.25 // clone when latest launch exceeds multiplier × quantile
)

// stragglerLatency is the injected per-task latency: a truncated Pareto
// whose occasional huge draws manufacture the stragglers.
func stragglerLatency() chaos.Dist {
	return chaos.Dist{Kind: chaos.DistPareto, Base: 150 * time.Millisecond, Alpha: 1.1, Max: 20 * time.Second}
}

// Straggler quantifies what the injected tail does to scaling and how
// much of it speculative re-execution claws back. For each n it Monte
// Carlo-estimates three makespans of an n-task wave on n workers:
//
//   - ideal (no chaos): every task takes T0, the wave finishes at T0;
//   - no mitigation: task i finishes at T0+Li with Li heavy-tailed, the
//     wave at max_i(T0+Li) — the E[max] inflation of Eq. 7/8;
//   - speculation: when a task outlives the multiplier × quantile
//     threshold of the realized finish times, a clone restarts it from
//     scratch with a fresh latency draw, and the task finishes at the
//     earlier of the two — the netmr master's policy in model form.
//
// Reported recovery is the fraction of the E[max] inflation (the
// mechanism of the speedup loss) that speculation removes:
// (E[M_none] − E[M_spec]) / (E[M_none] − T0). Every sample comes from a
// seed-derived stream, so the report is byte-identical across runs and
// at any -parallel width.
func Straggler(ctx context.Context, ns []int, reps int, seed int64) (Report, error) {
	if len(ns) == 0 || reps < 1 {
		return Report{}, fmt.Errorf("experiment: invalid straggler grid (ns=%v reps=%d)", ns, reps)
	}
	dist := stragglerLatency()

	type point struct {
		none, spec float64 // E[makespan], model seconds
	}
	points, err := runner.Map(ctx, len(ns), func(_ context.Context, i int) (point, error) {
		n := ns[i]
		if n < 1 {
			return point{}, fmt.Errorf("experiment: invalid straggler n %d", n)
		}
		sumNone, sumSpec := 0.0, 0.0
		finish := make([]float64, n)
		for r := 0; r < reps; r++ {
			rng := chaos.NewSplitMix64(chaos.Derive(uint64(seed), 0x57A66, uint64(n), uint64(r)))
			for t := 0; t < n; t++ {
				finish[t] = stragglerBaseTask + dist.SampleSeconds(rng)
			}
			sumNone += maxOf(finish)
			// Speculation pass: the threshold comes from the realized
			// finishes (the observable the master's quantile trigger
			// estimates), clones redraw their latency.
			threshold := stragglerMultiplier * quantileOf(finish, stragglerQuantile)
			mspec := 0.0
			for t := 0; t < n; t++ {
				f := finish[t]
				if f > threshold {
					clone := threshold + stragglerBaseTask + dist.SampleSeconds(rng)
					if clone < f {
						f = clone
					}
				}
				if f > mspec {
					mspec = f
				}
			}
			sumSpec += mspec
		}
		return point{none: sumNone / float64(reps), spec: sumSpec / float64(reps)}, nil
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{ID: "straggler", Title: "Heavy-tailed stragglers: E[max] inflation and speculative recovery"}
	tbl := Table{
		Title: fmt.Sprintf("wave of n unit tasks, latency %s, clone at %g × q%g (%d reps)",
			dist, stragglerMultiplier, 100*stragglerQuantile, reps),
		Headers: []string{"n", "E[max]/T0 none", "E[max]/T0 spec", "S none", "S spec", "recovery"},
	}
	xs := make([]float64, len(ns))
	sIdeal := make([]float64, len(ns))
	sNone := make([]float64, len(ns))
	sSpec := make([]float64, len(ns))
	recovery := make([]float64, len(ns))
	for i, n := range ns {
		p := points[i]
		xs[i] = float64(n)
		sIdeal[i] = float64(n)
		sNone[i] = float64(n) * stragglerBaseTask / p.none
		sSpec[i] = float64(n) * stragglerBaseTask / p.spec
		recovery[i] = (p.none - p.spec) / (p.none - stragglerBaseTask)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", p.none/stragglerBaseTask),
			fmt.Sprintf("%.3f", p.spec/stragglerBaseTask),
			f2(sNone[i]),
			f2(sSpec[i]),
			fmt.Sprintf("%.3f", recovery[i]),
		})
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series,
		Series{Name: "speedup/ideal", X: xs, Y: sIdeal},
		Series{Name: "speedup/no-mitigation", X: xs, Y: sNone},
		Series{Name: "speedup/speculation", X: xs, Y: sSpec},
		Series{Name: "recovery", X: xs, Y: recovery},
	)

	// Close the loop on the real runtime: a chaos-injected netmr cluster
	// (one worker slowed by injected task latency, speculation on) must
	// still produce the exact WordCount answer. Only schedule-invariant
	// facts are reported, so the experiment stays byte-reproducible.
	keys, total, err := runStragglerValidation(ctx)
	if err != nil {
		return Report{}, err
	}
	rep.Tables = append(rep.Tables, Table{
		Title:   "real netmr validation: wordcount under injected task latency with speculation",
		Headers: []string{"fact", "value"},
		Rows: [][]string{
			{"distinct words", fmt.Sprintf("%d", keys)},
			{"total words", fmt.Sprintf("%.0f", total)},
		},
	})
	return rep, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// quantileOf returns the nearest-rank q-quantile without mutating xs.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// runStragglerValidation runs WordCount on a real TCP cluster where one
// of three workers suffers injected fixed task latency, with retries and
// speculation enabled, and returns the distinct-key count and summed
// word count — values any correct execution must reproduce no matter
// which launches won.
func runStragglerValidation(ctx context.Context) (int, float64, error) {
	input, err := workload.TextLines(400, 8, 42)
	if err != nil {
		return 0, 0, err
	}
	job := wordCountNetJob()
	registry, err := netmr.NewRegistry(job)
	if err != nil {
		return 0, 0, err
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{
		SpeculationInterval: 5 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer master.Close()

	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < 3; i++ {
		wreg, err := netmr.NewRegistry(job)
		if err != nil {
			return 0, 0, err
		}
		var opts []netmr.WorkerOption
		if i == 0 { // the slow machine: every task pays a fixed delay
			// 40 ms is still ~8 speculation intervals, so clones always
			// fire; the reported facts (distinct/total words) are
			// input-determined, so the smaller constant only trims the
			// experiment's wall clock.
			opts = append(opts, netmr.WithChaos(chaos.New(chaos.Config{
				Seed:        1,
				TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 40 * time.Millisecond},
			})))
		}
		w, err := netmr.NewWorker(wreg, opts...)
		if err != nil {
			return 0, 0, err
		}
		if err := w.Start(addr); err != nil {
			return 0, 0, err
		}
		stops = append(stops, w.Stop)
	}
	if err := master.WaitForWorkers(3, 30*time.Second); err != nil {
		return 0, 0, err
	}
	result, _, err := master.Run(ctx, "wordcount", input, 12)
	if err != nil {
		return 0, 0, err
	}
	total := 0.0
	for _, v := range result {
		total += v
	}
	return len(result), total, nil
}
