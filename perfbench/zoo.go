package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ipso/internal/core"
)

// zooNs is the scale-out grid of every zoo-fit sweep: dense at small n
// to pin the rise, long enough to expose the tail regimes (retrograde
// decline, saturation, slow growth) the laws disagree about.
var zooNs = []float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}

// zooModels are the zoo members in core.ModelZoo order.
var zooModels = []string{core.ModelIPSO, core.ModelUSL, core.ModelAmdahl, core.ModelGustafson, core.ModelPower}

// zooBatch is how many sweeps one zoo-fit job diagnoses: three from
// each law, as a study of nine applications would. A single 5 ms
// diagnosis put the eleventh-slowest of ~3500 jobs at p99.7, whose
// spread across seeds on the 2-CPU host (0.24–0.33 of its median) was
// beyond any usable bound; batches of nine put the tail near p97.
const zooBatch = 9

// zooPool is how many sweeps a run draws: more than the ~2900 a 20 s run
// diagnoses on the 2-CPU host, so no sweep repeats there and the tail is
// a quantile of many sweeps, not the slowest sweep of a few. It is a
// multiple of zooBatch so every job holds three sweeps of each law.
const zooPool = 1000 * zooBatch

// zooLaws generate the sweeps in rotation.
var zooLaws = []struct {
	model    string
	workload core.WorkloadType
	params   []float64
}{
	{core.ModelUSL, core.FixedSize, []float64{0.05, 0.001}},              // σ, κ
	{core.ModelAmdahl, core.FixedSize, []float64{0.95}},                  // η
	{core.ModelIPSO, core.FixedTime, []float64{0.7, 1, 0.4, 0.004, 0.8}}, // η, α, δ, β, γ (Eq. 16)
}

// zooSweep is one zoo-fit input: a speedup sweep over zooNs drawn from
// a known law with ±0.5% multiplicative noise.
type zooSweep struct {
	truth    string
	workload core.WorkloadType
	speedups []float64
}

func zooSweeps(seed int64) ([]zooSweep, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]zooSweep, zooPool)
	for i := range out {
		law := zooLaws[i%len(zooLaws)]
		m, err := core.NewZooModel(law.model, law.workload)
		if err != nil {
			return nil, err
		}
		if err := m.SetParams(law.params); err != nil {
			return nil, err
		}
		ss := make([]float64, len(zooNs))
		for j, n := range zooNs {
			s, err := m.Speedup(n)
			if err != nil {
				return nil, err
			}
			ss[j] = s * (1 + 0.005*(2*rng.Float64()-1))
		}
		out[i] = zooSweep{truth: law.model, workload: law.workload, speedups: ss}
	}
	return out, nil
}

// zooInputBytes is one job's input: the n and speedup float64s of each
// sweep in the batch.
var zooInputBytes = zooBatch * 2 * 8 * len(zooNs)

// zooJob returns the sweeps job i diagnoses.
func zooJob(sweeps []zooSweep, i int) []zooSweep {
	start := i * zooBatch % len(sweeps)
	return sweeps[start : start+zooBatch]
}

// diagnoseBatch runs one zoo-fit job: every diagnosis must return
// without error and with a selected model. It returns the job's wall
// seconds, the diagnoses, and how many selected the law that generated
// their sweep.
func diagnoseBatch(batch []zooSweep, log *spanLog, job, parent int) (float64, []core.Diagnosis, int, error) {
	diags := make([]core.Diagnosis, 0, len(batch))
	recovered := 0
	start := time.Now()
	for _, sw := range batch {
		sp := log.open("core.DiagnoseModels", job, parent)
		d, err := core.DiagnoseModels(sw.workload, zooNs, sw.speedups)
		log.close(sp)
		if err != nil {
			return time.Since(start).Seconds(), diags, recovered, err
		}
		best, ok := d.Models.BestFit()
		if !ok {
			return time.Since(start).Seconds(), diags, recovered, fmt.Errorf("diagnosis selected no model: %v", d.Notes)
		}
		if best.Name == sw.truth {
			recovered++
		}
		diags = append(diags, d)
	}
	return time.Since(start).Seconds(), diags, recovered, nil
}

// zooSetUp draws the sweeps and runs one warm-up job, returning the
// sweeps and the seconds both took.
func zooSetUp(seed int64) ([]zooSweep, float64, error) {
	start := time.Now()
	sweeps, err := zooSweeps(seed)
	if err != nil {
		return nil, 0, err
	}
	if _, _, _, err := diagnoseBatch(zooJob(sweeps, 0), nil, -1, 0); err != nil {
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	return sweeps, time.Since(start).Seconds(), nil
}

func runZoo(o options) (report, error) {
	var rep report
	var sweeps []zooSweep
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		sw, secs, err := zooSetUp(o.seed)
		if err != nil {
			return rep, err
		}
		sweeps, setups = sw, append(setups, secs)
	}
	runtime.GC()
	if o.spans != nil {
		return runZooTraced(sweeps, o)
	}
	recovered := 0
	times := closedLoop(o.duration, 1, &rep, func(i int) (float64, error) {
		secs, _, ok, err := diagnoseBatch(zooJob(sweeps, i), nil, i, 0)
		recovered += ok
		return secs, err
	})
	peak, err := peakRSSMB()
	if err != nil {
		return rep, err
	}
	setLatency(&rep, times, zooInputBytes)
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", peak)
	rep.set("model_recovered_ratio", float64(recovered)/float64(rep.attempted*zooBatch))
	return rep, nil
}

// runZooTraced times the layers under each job's diagnoses: the shape
// diagnosis, the zoo fit, and each member's bare fit, summed over the
// job's sweeps. The leave-one-out refits and scoring are the zoo fit's
// time beyond its members' fits.
func runZooTraced(sweeps []zooSweep, o options) (report, error) {
	var rep report
	log := o.spans
	var shape, fit, loo, iters, allocs, allocBytes []float64
	member := make(map[string][]float64, len(zooModels))
	recovered, fitted, converged := 0, 0, 0
	closedLoop(o.duration, 1, &rep, func(i int) (float64, error) {
		batch := zooJob(sweeps, i)
		root := log.open("job", i, 0)
		defer log.close(root)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		secs, diags, ok, err := diagnoseBatch(batch, log, i, root)
		runtime.ReadMemStats(&after)
		if err != nil {
			return secs, err
		}
		recovered += ok
		n := 0
		for _, d := range diags {
			for _, f := range d.Models.Fits {
				n += f.Iters
				if f.Err == nil {
					fitted++
					if f.Converged {
						converged++
					}
				}
			}
		}

		var shapeT, fitT float64
		memberT := make(map[string]float64, len(zooModels))
		for _, sw := range batch {
			sp := log.open("core.Diagnose", i, root)
			_, err := core.Diagnose(sw.workload, zooNs, sw.speedups)
			shapeT += log.close(sp).seconds()
			if err != nil {
				return secs, err
			}
			sp = log.open("core.FitModels", i, root)
			_, err = core.FitModels(zooNs, sw.speedups, core.ModelZoo(sw.workload))
			fitT += log.close(sp).seconds()
			if err != nil {
				return secs, err
			}
			for _, name := range zooModels {
				m, err := core.NewZooModel(name, sw.workload)
				if err != nil {
					return secs, err
				}
				sp := log.open("core.ScalingModel.Fit/"+name, i, root)
				// A member that fails to fit is reported by FitModels and
				// does not fail the diagnosis; only its time matters here.
				_, _ = m.Fit(zooNs, sw.speedups)
				memberT[name] += log.close(sp).seconds()
			}
		}
		looT := fitT
		for _, name := range zooModels {
			member[name] = append(member[name], memberT[name])
			looT -= memberT[name]
		}
		shape = append(shape, shapeT)
		fit = append(fit, fitT)
		loo = append(loo, looT)
		iters = append(iters, float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocBytes = append(allocBytes, mb(float64(after.TotalAlloc-before.TotalAlloc)))
		return secs, nil
	})
	if len(fit) == 0 {
		return rep, fmt.Errorf("no job succeeded")
	}
	rep.set("core.diagnose.shape_s", median(shape))
	rep.set("core.zoo.fit_s", median(fit))
	for _, name := range zooModels {
		rep.set("core.zoo.model_fit_s."+name, median(member[name]))
	}
	rep.set("core.zoo.loo_s", median(loo))
	rep.set("core.zoo.iters", median(iters))
	rep.set("core.zoo.converged_ratio", float64(converged)/float64(fitted))
	rep.set("core.allocs_per_job", median(allocs))
	rep.set("core.alloc_mb_per_job", median(allocBytes))
	rep.set("model_recovered_ratio", float64(recovered)/float64(rep.attempted*zooBatch))
	return rep, nil
}
