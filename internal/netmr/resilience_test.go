package netmr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/obs"
)

func TestBackoffDelayCapRespected(t *testing.T) {
	base := 20 * time.Millisecond
	max := 2 * time.Second
	for attempt := 1; attempt <= 40; attempt++ {
		d := backoffDelay(base, max, 0.2, 7, 0, attempt)
		if d > max {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d, max)
		}
		if d < 0 {
			t.Fatalf("attempt %d: negative delay %v", attempt, d)
		}
	}
}

func TestBackoffDelayDoublesWithoutJitter(t *testing.T) {
	base := 10 * time.Millisecond
	max := 500 * time.Millisecond
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond,
	}
	for i, w := range want {
		// Jitter 0 means backoffDelay skips the jitter draw entirely.
		if d := backoffDelay(base, max, 0, 1, 0, i+1); d != w {
			t.Fatalf("attempt %d: got %v want %v", i+1, d, w)
		}
	}
}

func TestBackoffDelayJitterBoundedAndDeterministic(t *testing.T) {
	base := 100 * time.Millisecond
	max := 10 * time.Second
	jitter := 0.25
	for shard := 0; shard < 8; shard++ {
		for attempt := 1; attempt <= 6; attempt++ {
			nominal := backoffDelay(base, max, 0, 3, shard, attempt)
			lo := time.Duration(float64(nominal) * (1 - jitter))
			hi := time.Duration(float64(nominal) * (1 + jitter))
			d := backoffDelay(base, max, jitter, 3, shard, attempt)
			if d < lo || d > hi {
				t.Fatalf("shard %d attempt %d: delay %v outside [%v, %v]", shard, attempt, d, lo, hi)
			}
			if again := backoffDelay(base, max, jitter, 3, shard, attempt); again != d {
				t.Fatalf("shard %d attempt %d: %v then %v for the same seed", shard, attempt, d, again)
			}
			if other := backoffDelay(base, max, jitter, 4, shard, attempt); other == d {
				t.Fatalf("shard %d attempt %d: seeds 3 and 4 both produced %v", shard, attempt, d)
			}
		}
	}
}

func TestLatencyQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := latencyQuantile(xs, 0.5); q != 3 {
		t.Fatalf("median of 1..5 = %v, want 3", q)
	}
	if q := latencyQuantile(xs, 1); q != 5 {
		t.Fatalf("max of 1..5 = %v, want 5", q)
	}
	if got := fmt.Sprint(xs); got != "[5 1 3 2 4]" {
		t.Fatalf("quantile mutated its input: %s", got)
	}
}

// TestRetryBudgetExhaustionSurfacesLastError drives every dispatch into
// an injected drop (master-side chaos, DropRate 1 with the hello read
// and helloack write exempt) so one shard burns its full MaxAttempts
// budget; the returned error must name the shard, the attempt count, and
// wrap the final injected error.
func TestRetryBudgetExhaustionSurfacesLastError(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 11, DropRate: 1, GraceOps: 2})
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout:    2 * time.Second,
		JobTimeout:     10 * time.Second,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  4 * time.Millisecond,
		Chaos:          inj,
		Metrics:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < 4; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	_, stats, err := master.Run(context.Background(), "wordcount", testLines(t, 8), 1)
	if err == nil {
		t.Fatal("expected retry budget exhaustion, got success")
	}
	if !strings.Contains(err.Error(), "shard 0 failed 3 times") {
		t.Fatalf("error does not name the shard and attempt count: %v", err)
	}
	if !errors.Is(err, chaos.ErrInjectedDrop) {
		t.Fatalf("error does not wrap the last launch error: %v", err)
	}
	if stats.Reassignments != 2 {
		t.Fatalf("Reassignments = %d, want 2 (three launches, two requeues)", stats.Reassignments)
	}
}

// sleeperRegistry registers a job whose map cost is written in the
// record itself ("key:millis"), so tests can shape per-shard latency
// exactly and deterministically.
func sleeperRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(Job{
		Name: "sleeper",
		Map: func(record string, emit func(string, float64)) {
			key, msText, _ := strings.Cut(record, ":")
			ms, _ := strconv.Atoi(msText)
			time.Sleep(time.Duration(ms) * time.Millisecond)
			emit(key, 1)
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func startSleeperCluster(t *testing.T, cfg MasterConfig, workers int) *Master {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	master, err := NewMaster(sleeperRegistry(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(sleeperRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return master
}

// TestDuplicateSpeculativeResultDiscardedOnce engineers a race the
// original launch wins: shard 0 sleeps 300 ms, its clone (launched once
// the fast shards establish a ~60 ms threshold) also sleeps 300 ms, so
// the clone's result lands while shard 1 (700 ms) is still pending —
// and must be discarded exactly once. Shard 1's clone is still in
// flight when the job completes, so it is counted as a cancellation.
func TestDuplicateSpeculativeResultDiscardedOnce(t *testing.T) {
	master := startSleeperCluster(t, MasterConfig{
		TaskTimeout:                10 * time.Second,
		JobTimeout:                 30 * time.Second,
		SpeculationInterval:        25 * time.Millisecond,
		SpeculationQuantile:        0.5,
		SpeculationMultiplier:      2,
		SpeculationMinObservations: 3,
	}, 4)

	records := []string{"slow:300", "slower:700", "c:30", "c:30", "c:30", "c:30", "c:30", "c:30"}
	result, stats, err := master.Run(context.Background(), "sleeper", records, len(records))
	if err != nil {
		t.Fatal(err)
	}
	if result["slow"] != 1 || result["slower"] != 1 || result["c"] != 6 {
		t.Fatalf("merge double-counted a duplicate result: %v", result)
	}
	if stats.Completed != len(records) {
		t.Fatalf("Completed = %d, want %d", stats.Completed, len(records))
	}
	if stats.Speculations != 2 {
		t.Fatalf("Speculations = %d, want 2 (one clone per straggler)", stats.Speculations)
	}
	if stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want exactly 1 (shard 0's late clone)", stats.Duplicates)
	}
	if stats.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1 (shard 1's clone outlived the job)", stats.Cancellations)
	}
}

// TestContextCancellationAbortsSpeculation cancels the job while an
// original launch and its speculative clone are both in flight; Run
// must return the context error promptly and account for both
// abandoned launches.
func TestContextCancellationAbortsSpeculation(t *testing.T) {
	master := startSleeperCluster(t, MasterConfig{
		TaskTimeout:                10 * time.Second,
		JobTimeout:                 30 * time.Second,
		SpeculationInterval:        20 * time.Millisecond,
		SpeculationMultiplier:      2,
		SpeculationMinObservations: 1,
	}, 2)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := master.Run(ctx, "sleeper", []string{"fast:5", "slow:600"}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 450*time.Millisecond {
		t.Fatalf("Run took %v after cancellation; it waited for in-flight launches", wall)
	}
	if stats.Speculations != 1 {
		t.Fatalf("Speculations = %d, want 1 (slow shard cloned before cancel)", stats.Speculations)
	}
	if stats.Cancellations != 2 {
		t.Fatalf("Cancellations = %d, want 2 (original + clone abandoned)", stats.Cancellations)
	}
}

// TestChaosGauntlet is the end-to-end resilience proof from the issue:
// 9 workers dropping 30% of their writes, one worker that crashes on
// its first task, and two slow-but-reliable workers that force
// speculation — the job must still finish with a correct result, and
// the retry/speculation work must be visible on /metrics.
func TestChaosGauntlet(t *testing.T) {
	reg := obs.NewRegistry()
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout:         5 * time.Second,
		JobTimeout:          60 * time.Second,
		MaxAttempts:         10,
		RetryBaseDelay:      2 * time.Millisecond,
		RetryMaxDelay:       50 * time.Millisecond,
		RetrySeed:           1,
		SpeculationInterval: 25 * time.Millisecond,
		Metrics:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	obsAddr, err := master.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	startWorker := func(i int, cfg chaos.Config) {
		t.Helper()
		w, err := NewWorker(mustRegistry(t), WithChaos(chaos.New(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	n := 0
	for i := 0; i < 9; i++ { // flaky: 30% of writes dropped, hello exempt
		startWorker(n, chaos.Config{Seed: int64(100 + i), DropRate: 0.3, GraceOps: 1})
		n++
	}
	// One permanent casualty: crashes on its first task, never retried
	// on — the "machine that died mid-job".
	startWorker(n, chaos.Config{Seed: 200, CrashRate: 1})
	n++
	for i := 0; i < 2; i++ { // slow but reliable: manufacture stragglers
		startWorker(n, chaos.Config{Seed: int64(300 + i), TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 300 * time.Millisecond}})
		n++
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 160)
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))

	result, stats, err := master.Run(context.Background(), "wordcount", lines, 16)
	if err != nil {
		t.Fatalf("job did not survive the gauntlet: %v (stats %+v)", err, stats)
	}
	if len(result) != len(want) {
		t.Fatalf("result has %d keys, want %d", len(result), len(want))
	}
	for k, v := range want {
		if result[k] != v {
			t.Fatalf("key %q = %v, want %v", k, result[k], v)
		}
	}
	if stats.Completed != 16 {
		t.Fatalf("Completed = %d, want 16", stats.Completed)
	}
	if stats.Reassignments == 0 {
		t.Fatal("expected reassignments under 30% drops and a crashed worker")
	}
	if stats.Speculations == 0 {
		t.Fatal("expected speculation against the 300 ms stragglers")
	}

	// The work must be visible on the wire: scrape /metrics.
	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, metric := range []string{"netmr_retries_total", "netmr_speculations_total"} {
		val, ok := scrapeValue(text, metric)
		if !ok {
			t.Fatalf("metric %s missing from /metrics:\n%s", metric, text)
		}
		if val <= 0 {
			t.Fatalf("metric %s = %v, want > 0", metric, val)
		}
	}
}

// scrapeValue pulls an unlabelled sample value out of Prometheus text.
func scrapeValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestLastWorkerLossFailsFast is the regression test for the run that
// hung until JobTimeout when its last worker died: the dispatcher used to
// report the failure before dropping the worker, so the Run loop saw one
// worker still alive, requeued the shard and waited for an idle worker
// that never came. A lone worker crashing on its first task must now fail
// the run with "all workers lost" at once, every time.
func TestLastWorkerLossFailsFast(t *testing.T) {
	for i := 0; i < 50; i++ {
		master, err := NewMaster(mustRegistry(t), MasterConfig{
			JobTimeout: 5 * time.Minute, RetryBaseDelay: time.Millisecond, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := master.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(mustRegistry(t), WithChaos(chaos.New(chaos.Config{Seed: int64(i), CrashRate: 1})))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, _, err = master.Run(context.Background(), "wordcount", testLines(t, 50), 4)
		elapsed := time.Since(start)
		w.Stop()
		master.Close()
		if err == nil || !strings.Contains(err.Error(), "all workers lost") {
			t.Fatalf("iteration %d: Run = %v, want an all-workers-lost error", i, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("iteration %d: Run took %v to notice its last worker died", i, elapsed)
		}
	}
}
