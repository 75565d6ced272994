package experiment

import (
	"context"
	"fmt"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/stats"
	"ipso/internal/workload"
)

// distReducePoint is one measured operating point of the reduce-on/off
// comparison: the master's merge tail after the barrier when it folds
// (the per-key Reduce plus the output map) against the serial residue
// (union of R disjoint key spaces) once the fold runs distributed on the
// workers.
type distReducePoint struct {
	n          int
	serialMs   float64 // master-side merge tail, reduce off (Reducers 0)
	residueMs  float64 // master-side residue, reduce on (union only)
	reduceMs   float64 // distributed reduce wall (now part of Wp)
	shuffle    int64   // intermediate bytes moved worker→worker
	reduceRuns int     // reduce tasks executed by workers
}

// distReduceMeasure runs the wordcount workload at each pool size with
// the distributed reduce off (the master's fold, whose tail is the Ws(n)
// of Eq. 14) and on (R reduce tasks on workers; the master keeps only
// the union of R disjoint partitions), then refits ε(n)=α·n^δ on both
// serial series.
func distReduceMeasure(ctx context.Context, workerCounts []int, lines, shards, reducers int) ([]distReducePoint, stats.PowerFit, stats.PowerFit, error) {
	if len(workerCounts) < 2 || lines < 1 || shards < 1 || reducers < 1 {
		return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf(
			"experiment: invalid distreduce grid (workers=%v lines=%d shards=%d reducers=%d)",
			workerCounts, lines, shards, reducers)
	}
	input, err := workload.TextLines(lines, 10, 42)
	if err != nil {
		return nil, stats.PowerFit{}, stats.PowerFit{}, err
	}
	points := make([]distReducePoint, 0, len(workerCounts))
	var xs, serial, residue []float64
	for _, n := range workerCounts {
		if n < 1 {
			return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf("experiment: invalid worker count %d", n)
		}
		off, err := runDistReduceWordCount(ctx, input, n, shards, 0)
		if err != nil {
			return nil, stats.PowerFit{}, stats.PowerFit{}, err
		}
		on, err := runDistReduceWordCount(ctx, input, n, shards, reducers)
		if err != nil {
			return nil, stats.PowerFit{}, stats.PowerFit{}, err
		}
		if on.ReduceTasks != reducers {
			return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf(
				"experiment: distreduce at n=%d ran %d of %d reduce tasks on workers", n, on.ReduceTasks, reducers)
		}
		p := distReducePoint{
			n:        n,
			serialMs: positiveMs(off.MergeWall), residueMs: positiveMs(on.MergeWall),
			reduceMs: float64(on.ReduceWall) / 1e6,
			shuffle:  on.ShuffleBytes, reduceRuns: on.ReduceTasks,
		}
		points = append(points, p)
		xs = append(xs, float64(n))
		serial = append(serial, p.serialMs)
		residue = append(residue, p.residueMs)
	}
	offFit, err := stats.PowerLaw(xs, serial)
	if err != nil {
		return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf("experiment: distreduce ε(n) fit, reduce off: %w", err)
	}
	onFit, err := stats.PowerLaw(xs, residue)
	if err != nil {
		return nil, stats.PowerFit{}, stats.PowerFit{}, fmt.Errorf("experiment: distreduce ε(n) fit, reduce on: %w", err)
	}
	return points, offFit, onFit, nil
}

// DistReduce reports the distributed worker-side reduce study: with the
// fold promoted from the master's serial phase to R reduce tasks on the
// workers, the serial work left on the master after the barrier shrinks
// from the per-key Reduce over every shard's values to the union of R
// disjoint key spaces, and the refitted
// in-proportion ratio ε(n) = α·n^δ (Eq. 14) shrinks with it — the
// model-level statement that reduce moved Ws into Wp.
func DistReduce(ctx context.Context, workerCounts []int, lines, shards, reducers int) (Report, error) {
	points, offFit, onFit, err := distReduceMeasure(ctx, workerCounts, lines, shards, reducers)
	if err != nil {
		return Report{}, err
	}
	rep := Report{ID: "distreduce", Title: "Distributed worker-side reduce: master serial work with reduce on vs off"}
	tbl := Table{
		Title: fmt.Sprintf("wordcount without Combine, R=%d reduce tasks on workers (wall-clock, best of %d runs; machine-dependent)", reducers, distReduceRepeats),
		Headers: []string{"workers", "master tail ms (reduce off)", "master residue ms (reduce on)",
			"reduce wall ms", "shuffle KiB", "reduce tasks"},
	}
	var xs, serial, residue []float64
	for _, p := range points {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", p.n),
			fmt.Sprintf("%.2f", p.serialMs),
			fmt.Sprintf("%.2f", p.residueMs),
			fmt.Sprintf("%.2f", p.reduceMs),
			fmt.Sprintf("%.1f", float64(p.shuffle)/1024),
			fmt.Sprintf("%d", p.reduceRuns),
		})
		xs = append(xs, float64(p.n))
		serial = append(serial, p.serialMs)
		residue = append(residue, p.residueMs)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Series = append(rep.Series,
		Series{Name: "distreduce/serial-ms", X: xs, Y: serial},
		Series{Name: "distreduce/residue-ms", X: xs, Y: residue},
	)
	maxN := xs[len(xs)-1]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("ε(n)=α·n^δ on master tail ms, reduce off: %s", offFit),
		fmt.Sprintf("ε(n)=α·n^δ on master residue ms, reduce on: %s", onFit),
		fmt.Sprintf("fitted serial work at n=%.0f: %.3f ms off vs %.3f ms on (%.1f× smaller with reduce on)",
			maxN, offFit.Eval(maxN), onFit.Eval(maxN), offFit.Eval(maxN)/onFit.Eval(maxN)),
	)
	return rep, nil
}

// runDistReduceWordCount measures one operating point. reducers == 0
// keeps the fold on the master (the reduce-off baseline); reducers > 0
// enables the distributed reduce phase. The job has no Combine: the
// master folds each shard result as it arrives, and with a Combine that
// fold is finished by the barrier, leaving the same union of keys either
// way. Without one, every key's values are grouped and reduced after the
// barrier — the per-key fold a distributed reduce moves to the workers.
func runDistReduceWordCount(ctx context.Context, input []string, workers, shards, reducers int) (netmr.Stats, error) {
	job := wordCountNetJob()
	job.Combine = nil
	registry, err := netmr.NewRegistry(job)
	if err != nil {
		return netmr.Stats{}, err
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{MaxTaskBatch: 4, Reducers: reducers})
	if err != nil {
		return netmr.Stats{}, err
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		return netmr.Stats{}, err
	}
	defer master.Close()

	stops := make([]func(), 0, workers)
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < workers; i++ {
		wreg, err := netmr.NewRegistry(job)
		if err != nil {
			return netmr.Stats{}, err
		}
		w, err := netmr.NewWorker(wreg)
		if err != nil {
			return netmr.Stats{}, err
		}
		if err := w.Start(addr); err != nil {
			return netmr.Stats{}, err
		}
		stops = append(stops, w.Stop)
	}
	if err := master.WaitForWorkers(workers, 30*time.Second); err != nil {
		return netmr.Stats{}, err
	}
	// The merge tails are tenths of a millisecond, so one run is mostly
	// scheduler noise; the least of several runs on the warm cluster is
	// the operating point.
	var best netmr.Stats
	for i := 0; i < distReduceRepeats; i++ {
		_, st, err := master.Run(ctx, "wordcount", input, shards)
		if err != nil {
			return netmr.Stats{}, err
		}
		if i == 0 || st.MergeWall < best.MergeWall {
			best = st
		}
	}
	return best, nil
}

// distReduceRepeats is how many jobs each operating point runs.
const distReduceRepeats = 5
