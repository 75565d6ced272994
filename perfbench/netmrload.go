package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"ipso/internal/netmr"
	"ipso/internal/obs"
)

const (
	// workerCount is the cluster size: one worker per CPU of the 2-CPU
	// host the benchmark was written on. It stays fixed so figures from
	// hosts with more cores remain comparable.
	workerCount = 2
	// setupRepeats is how many clusters a run sets up to report the
	// median set-up time; the last one serves the timed jobs.
	setupRepeats = 5
	wordsPerLine = 10
	vocabSize    = 1000
)

// netmrWorkload is one MapReduce job run on an in-process cluster of a
// master and workerCount workers over loopback TCP. Only the knobs
// below are set; the runtime's defaults cover the rest, so deleting a
// protocol option or fold path needs no edit here.
type netmrWorkload struct {
	job    netmr.Job
	oracle func(lines []string) map[string]float64
	lines  int
	shards int
	// reducers is MasterConfig.Reducers; 0 folds on the master.
	reducers int
	// spillBudget is each worker's WorkerConfig.SpillBudget; 0 keeps the
	// intermediate data in memory.
	spillBudget int64
	// jobTimeout bounds one job (MasterConfig.TaskTimeout and JobTimeout):
	// about ten times the job's time on the 2-CPU host, so a hang shows
	// as a failed job rather than as a long sample.
	jobTimeout time.Duration
}

var (
	wordcount = netmrWorkload{
		job: wordCountJob(), oracle: countWords,
		lines: 200_000, shards: 32, jobTimeout: time.Second,
	}
	bigram = netmrWorkload{
		job: bigramJob(), oracle: countBigrams,
		lines: 50_000, shards: 16, reducers: 2, jobTimeout: 6 * time.Second,
	}
	bigramSpill = netmrWorkload{
		job: bigramJob(), oracle: countBigrams,
		lines: 50_000, shards: 16, reducers: 2, spillBudget: 1 << 20, jobTimeout: 12 * time.Second,
	}
)

// netmrInput is a workload's generated input with its expected output.
type netmrInput struct {
	lines []string
	bytes int
	want  map[string]float64
}

func newNetmrInput(w netmrWorkload, seed int64) *netmrInput {
	in := &netmrInput{lines: textInput(seed, w.lines)}
	for _, l := range in.lines {
		in.bytes += len(l)
	}
	in.want = w.oracle(in.lines)
	return in
}

// textInput draws lines of wordsPerLine words separated by single
// spaces, each word uniform over a vocabulary of vocabSize random
// lowercase words; everything follows from the seed.
func textInput(seed int64, lines int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, vocabSize)
	vocab := make([]string, 0, vocabSize)
	for len(vocab) < vocabSize {
		b := make([]byte, 3+rng.Intn(7))
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	out := make([]string, lines)
	var b strings.Builder
	for i := range out {
		b.Reset()
		for j := 0; j < wordsPerLine; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(vocab[rng.Intn(vocabSize)])
		}
		out[i] = b.String()
	}
	return out
}

// forEachWord calls fn with the bounds of every space-separated word.
func forEachWord(record string, fn func(start, end int)) {
	start := -1
	for i := 0; i < len(record); i++ {
		if record[i] == ' ' {
			if start >= 0 {
				fn(start, i)
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fn(start, len(record))
	}
}

func sum(_ string, values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

func add(acc, v float64) float64 { return acc + v }

func wordCountJob() netmr.Job {
	return netmr.Job{
		Name: "wordcount",
		Map: func(record string, emit func(string, float64)) {
			forEachWord(record, func(start, end int) { emit(record[start:end], 1) })
		},
		Reduce:  sum,
		Combine: add,
	}
}

// bigramJob counts adjacent word pairs. Input words are separated by
// single spaces, so the text from one word's start to the next word's
// end is the pair itself and needs no allocation.
func bigramJob() netmr.Job {
	return netmr.Job{
		Name: "bigram",
		Map: func(record string, emit func(string, float64)) {
			prev := -1
			forEachWord(record, func(start, end int) {
				if prev >= 0 {
					emit(record[prev:end], 1)
				}
				prev = start
			})
		},
		Reduce:  sum,
		Combine: add,
	}
}

// countWords and countBigrams are the oracle: a single-threaded
// map/reduce written independently of the jobs above.
func countWords(lines []string) map[string]float64 {
	out := map[string]float64{}
	for _, l := range lines {
		for _, w := range strings.Fields(l) {
			out[w]++
		}
	}
	return out
}

func countBigrams(lines []string) map[string]float64 {
	out := map[string]float64{}
	for _, l := range lines {
		ws := strings.Fields(l)
		for i := 1; i < len(ws); i++ {
			out[ws[i-1]+" "+ws[i]]++
		}
	}
	return out
}

// checkOutput compares a job's output with the oracle's, exactly.
func checkOutput(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("output lacks key %q", k)
		}
		if g != v {
			return fmt.Errorf("output[%q] = %v, want %v", k, g, v)
		}
	}
	return nil
}

// cluster is one in-process master with its workers.
type cluster struct {
	master  *netmr.Master
	workers []*netmr.Worker
}

// startCluster brings up a master and workerCount workers and waits
// until all are admitted, with a span around every public call.
func startCluster(w netmrWorkload, traced bool, scratch string, log *spanLog, parent int) (*cluster, error) {
	registry, err := netmr.NewRegistry(w.job)
	if err != nil {
		return nil, err
	}
	// Each cluster spills into a directory of its own, so clusters alive
	// at once never share run directories.
	spillDir, err := os.MkdirTemp(scratch, "cluster-")
	if err != nil {
		return nil, err
	}
	sp := log.open("netmr.NewMaster", -1, parent)
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{
		Reducers:    w.reducers,
		Trace:       traced,
		TaskTimeout: w.jobTimeout,
		JobTimeout:  w.jobTimeout,
		Metrics:     obs.NewRegistry(),
	})
	log.close(sp)
	if err != nil {
		return nil, err
	}
	c := &cluster{master: master}
	sp = log.open("netmr.Master.Listen", -1, parent)
	addr, err := master.Listen("127.0.0.1:0")
	log.close(sp)
	if err != nil {
		c.close()
		return nil, err
	}
	for i := 0; i < workerCount; i++ {
		wreg, err := netmr.NewRegistry(w.job)
		if err != nil {
			c.close()
			return nil, err
		}
		worker, err := netmr.NewWorker(wreg, netmr.WithWorkerConfig(netmr.WorkerConfig{
			SpillBudget: w.spillBudget, SpillDir: spillDir,
		}))
		if err != nil {
			c.close()
			return nil, err
		}
		sp = log.open("netmr.Worker.Start", -1, parent)
		err = worker.Start(addr)
		log.close(sp)
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, worker)
	}
	sp = log.open("netmr.Master.WaitForWorkers", -1, parent)
	err = master.WaitForWorkers(workerCount, 10*time.Second)
	log.close(sp)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) close() {
	for _, w := range c.workers {
		w.Stop()
	}
	c.master.Close()
}

// runJob submits one job under a deadline, checks its output against
// the oracle, and returns the job's wall seconds.
func (c *cluster) runJob(w netmrWorkload, in *netmrInput, log *spanLog, job, parent int) (float64, netmr.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), w.jobTimeout+time.Second)
	defer cancel()
	sp := log.open("netmr.Master.Run", job, parent)
	start := time.Now()
	out, st, err := c.master.Run(ctx, w.job.Name, in.lines, w.shards)
	secs := time.Since(start).Seconds()
	log.close(sp)
	if err != nil {
		return secs, st, err
	}
	sp = log.open("oracle.check", job, parent)
	err = checkOutput(out, in.want)
	log.close(sp)
	return secs, st, err
}

// setUp starts a cluster and runs one warm-up job on it. It returns the
// cluster and the seconds from NewMaster until the warm-up job finished.
func setUp(w netmrWorkload, in *netmrInput, traced bool, scratch string, log *spanLog) (*cluster, float64, error) {
	root := log.open("setup", -1, 0)
	start := time.Now()
	c, err := startCluster(w, traced, scratch, log, root)
	if err != nil {
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	if _, _, err := c.runJob(w, in, log, -1, root); err != nil {
		c.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	secs := time.Since(start).Seconds()
	log.close(root)
	return c, secs, nil
}

func runNetmr(w netmrWorkload, o options) (report, error) {
	in := newNetmrInput(w, o.seed)
	if o.spans != nil {
		return runNetmrTraced(w, in, o)
	}
	var rep report
	var setups []float64
	var c *cluster
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.close()
		}
		next, secs, err := setUp(w, in, false, o.scratch, nil)
		if err != nil {
			return rep, err
		}
		c, setups = next, append(setups, secs)
	}
	defer c.close()
	runtime.GC()
	times := closedLoop(o.duration, 1, &rep, func(i int) (float64, error) {
		secs, _, err := c.runJob(w, in, nil, i, 0)
		return secs, err
	})
	peak, err := peakRSSMB()
	if err != nil {
		return rep, err
	}
	setLatency(&rep, times, in.bytes)
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", peak)
	rep.notef("input %d lines, %.2f MB, %d shards, %d distinct keys", len(in.lines), mb(float64(in.bytes)), w.shards, len(in.want))
	return rep, nil
}

// layerSample is what one traced job reports about the runtime's layers.
type layerSample struct {
	bd         netmr.PhaseBreakdown
	st         netmr.Stats
	outcomes   map[string]int
	mallocs    float64
	allocBytes float64
}

// tracedJob runs one job on a traced cluster and reads its phase
// breakdown, launch outcomes and the process's allocation delta.
func (c *cluster) tracedJob(w netmrWorkload, in *netmrInput, log *spanLog, job int) (float64, layerSample, error) {
	var s layerSample
	root := log.open("job", job, 0)
	defer log.close(root)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	secs, st, err := c.runJob(w, in, log, job, root)
	runtime.ReadMemStats(&after)
	if err != nil {
		return secs, s, err
	}
	s.st = st
	s.mallocs = float64(after.Mallocs - before.Mallocs)
	s.allocBytes = float64(after.TotalAlloc - before.TotalAlloc)
	trc := c.master.LastTrace()
	if trc == nil {
		return secs, s, fmt.Errorf("traced run left no job trace")
	}
	sp := log.open("netmr.JobTrace.Breakdown", job, root)
	s.bd = trc.Breakdown(st)
	s.outcomes = trc.Outcomes()
	log.close(sp)
	if err := checkIdentity(s.bd); err != nil {
		return secs, s, err
	}
	return secs, s, nil
}

// checkIdentity checks the trace's wall-clock identity
// MaxTask + MaxReduce + Ws + Wo = TotalWall to within clock rounding.
func checkIdentity(bd netmr.PhaseBreakdown) error {
	sum := bd.MaxTask + bd.MaxReduce + bd.Ws + bd.Wo
	if math.Abs(sum-bd.TotalWall) > 1e-6 {
		return fmt.Errorf("trace identity broken: MaxTask+MaxReduce+Ws+Wo = %.9f s, TotalWall = %.9f s", sum, bd.TotalWall)
	}
	return nil
}

// runNetmrTraced measures the per-layer figures on a traced cluster.
// Jobs alternate between it and an untraced twin, the reference for the
// tracing overhead, so drift in the host's speed falls on both alike.
func runNetmrTraced(w netmrWorkload, in *netmrInput, o options) (report, error) {
	var rep report
	plain, _, err := setUp(w, in, false, o.scratch, nil)
	if err != nil {
		return rep, err
	}
	defer plain.close()
	c, _, err := setUp(w, in, true, o.scratch, o.spans)
	if err != nil {
		return rep, err
	}
	defer c.close()
	var untraced, traced []float64
	var samples []layerSample
	closedLoop(o.duration, 2, &rep, func(i int) (float64, error) {
		if i%2 == 0 {
			secs, _, err := plain.runJob(w, in, nil, i, 0)
			if err == nil {
				untraced = append(untraced, secs)
			}
			return secs, err
		}
		secs, s, err := c.tracedJob(w, in, o.spans, i)
		if err == nil {
			traced = append(traced, secs)
			samples = append(samples, s)
		}
		return secs, err
	})
	if len(samples) == 0 || len(untraced) == 0 {
		return rep, fmt.Errorf("no job succeeded on one of the clusters")
	}
	var storePeak int64
	for _, wk := range c.workers {
		if p, _, _ := wk.StoreStats(); p > storePeak {
			storePeak = p
		}
	}

	per := func(name string, f func(s layerSample) float64) {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		rep.set(name, median(xs))
	}
	per("netmr.worker.map_s", func(s layerSample) float64 { return s.bd.Wp })
	per("netmr.worker.max_task_s", func(s layerSample) float64 { return s.bd.MaxTask })
	per("netmr.codec.decode_s", func(s layerSample) float64 { return s.bd.Decode })
	per("netmr.codec.encode_s", func(s layerSample) float64 { return s.bd.Encode })
	per("netmr.codec.lz_saved_mb", func(s layerSample) float64 { return mb(float64(s.st.CompressedBytes)) })
	per("netmr.worker.partition_s", func(s layerSample) float64 { return s.bd.Partition })
	per("netmr.master.rpc_gap_s", func(s layerSample) float64 { return s.bd.RPCGap })
	per("netmr.master.wo_s", func(s layerSample) float64 { return s.bd.Wo })
	per("netmr.master.wasted_s", func(s layerSample) float64 { return s.bd.Wasted })
	per("netmr.master.launch_yield", func(s layerSample) float64 {
		all := 0
		for _, n := range s.outcomes {
			all += n
		}
		return float64(s.outcomes["ok"]) / float64(all)
	})
	per("netmr.merge.ws_s", func(s layerSample) float64 { return s.bd.Ws })
	// The paper's overhead Wo = Wp/n·q(n), solved for q at n workers.
	per("netmr.q", func(s layerSample) float64 { return float64(s.bd.Workers) * s.bd.Wo / s.bd.Wp })
	per("netmr.shuffle.replicate_s", func(s layerSample) float64 { return s.bd.Replicate })
	per("netmr.shuffle.fetch_s", func(s layerSample) float64 { return s.bd.Fetch })
	per("netmr.shuffle.mb", func(s layerSample) float64 { return mb(float64(s.st.ShuffleBytes)) })
	per("netmr.reduce.fold_s", func(s layerSample) float64 { return s.bd.Reduce })
	per("netmr.reduce.max_fold_s", func(s layerSample) float64 { return s.bd.MaxReduce })
	per("netmr.spill.write_s", func(s layerSample) float64 { return s.bd.Spill })
	per("netmr.spill.runs", func(s layerSample) float64 { return float64(s.st.SpillRuns) })
	per("netmr.spill.mb", func(s layerSample) float64 { return mb(float64(s.st.SpilledBytes)) })
	per("netmr.allocs_per_job", func(s layerSample) float64 { return s.mallocs })
	per("netmr.alloc_mb_per_job", func(s layerSample) float64 { return mb(s.allocBytes) })
	rep.set("netmr.spill.store_peak_mb", mb(float64(storePeak)))
	rep.set("netmr.trace_overhead", median(traced)/median(untraced)-1)
	rep.notef("%d untraced and %d traced jobs; job_s_p50 %.6f s untraced, %.6f s traced", len(untraced), len(traced), median(untraced), median(traced))
	return rep, nil
}
