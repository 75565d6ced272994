package netmr

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"ipso/internal/workload"
)

func wordCountJob() Job {
	return Job{
		Name: "wordcount",
		Map: func(record string, emit func(string, float64)) {
			for _, w := range strings.Fields(record) {
				emit(w, 1)
			}
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
	}
}

func mustRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// startCluster brings up a master plus n workers on localhost.
func startCluster(t *testing.T, n int) (*Master, []*Worker) {
	t.Helper()
	master, err := NewMaster(mustRegistry(t), MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	workers := make([]*Worker, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		workers = append(workers, w)
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return master, workers
}

// pairsOf builds a flat partial from a literal map, keys sorted — the
// one way test fixtures write partials. An empty map gives the empty
// partial the decoder produces.
func pairsOf(m map[string]float64) pairs {
	if len(m) == 0 {
		return pairs{}
	}
	p := pairs{Keys: make([]string, 0, len(m)), Vals: make([]float64, 0, len(m))}
	for k := range m {
		p.Keys = append(p.Keys, k)
	}
	sort.Strings(p.Keys)
	for _, k := range p.Keys {
		p.Vals = append(p.Vals, m[k])
	}
	return p
}

// mapOf collapses a flat partial into a map for comparisons, failing the
// test on a key the partial repeats (a map would hide it).
func mapOf(t testing.TB, p pairs) map[string]float64 {
	t.Helper()
	if len(p.Keys) != len(p.Vals) {
		t.Fatalf("partial has %d keys but %d values", len(p.Keys), len(p.Vals))
	}
	m := make(map[string]float64, len(p.Keys))
	for i, k := range p.Keys {
		if _, dup := m[k]; dup {
			t.Fatalf("partial repeats key %q", k)
		}
		m[k] = p.Vals[i]
	}
	return m
}

func testLines(t *testing.T, n int) []string {
	t.Helper()
	lines, err := workload.TextLines(n, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(Job{Name: "x"}); err == nil {
		t.Error("job without Map/Reduce should error")
	}
	if _, err := NewRegistry(Job{Map: wordCountJob().Map, Reduce: wordCountJob().Reduce}); err == nil {
		t.Error("unnamed job should error")
	}
	if _, err := NewRegistry(wordCountJob(), wordCountJob()); err == nil {
		t.Error("duplicate names should error")
	}
	if _, err := NewWorker(nil); err == nil {
		t.Error("worker without registry should error")
	}
	if _, err := NewMaster(nil, MasterConfig{}); err == nil {
		t.Error("master without registry should error")
	}
}

func TestDistributedWordCountMatchesLocal(t *testing.T) {
	master, _ := startCluster(t, 3)
	lines := testLines(t, 500)

	got, stats, err := master.Run(context.Background(), "wordcount", lines, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 || stats.Shards != 9 || stats.Reassignments != 0 {
		t.Errorf("unexpected stats %+v", stats)
	}

	// Ground truth computed locally.
	want := make(map[string]float64)
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			want[w]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("count[%q] = %g, want %g", k, got[k], v)
		}
	}
}

func TestRunValidation(t *testing.T) {
	master, _ := startCluster(t, 1)
	if _, _, err := master.Run(context.Background(), "nope", []string{"a"}, 1); err == nil {
		t.Error("unknown job should error")
	}
	if _, _, err := master.Run(context.Background(), "wordcount", []string{"a"}, 0); err == nil {
		t.Error("zero shards should error")
	}
}

func TestRunWithoutWorkers(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := master.Run(context.Background(), "wordcount", []string{"a"}, 1); err == nil {
		t.Error("not-listening master should error")
	}
	if _, err := master.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, _, err := master.Run(context.Background(), "wordcount", []string{"a"}, 1); err == nil {
		t.Error("workerless run should error")
	}
}

func TestWorkerFailureReassignsShards(t *testing.T) {
	master, workers := startCluster(t, 3)
	lines := testLines(t, 300)

	// Kill one worker before the job: its admitted handle is still in
	// the idle pool, so the master discovers the death mid-dispatch and
	// must reassign that shard to a survivor.
	workers[0].Stop()

	got, stats, err := master.Run(context.Background(), "wordcount", lines, 12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassignments == 0 {
		t.Error("expected at least one reassignment after a worker death")
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total != float64(300*8) {
		t.Errorf("total words %g, want %d — results must survive worker failure intact", total, 300*8)
	}
}

func TestAllWorkersLostFailsCleanly(t *testing.T) {
	master, workers := startCluster(t, 1)
	workers[0].Stop()
	if _, _, err := master.Run(context.Background(), "wordcount", testLines(t, 50), 4); err == nil {
		t.Error("run with every worker dead should fail")
	}
}

func TestSequentialVersusParallelShards(t *testing.T) {
	// The distributed runtime is a real system: with one worker the whole
	// split phase serializes, and with several it does not — but the
	// *result* is identical, the invariant the speedup definition needs.
	lines := testLines(t, 400)

	oneMaster, _ := startCluster(t, 1)
	seq, _, err := oneMaster.Run(context.Background(), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	oneMaster.Close()

	fourMaster, _ := startCluster(t, 4)
	par, _, err := fourMaster.Run(context.Background(), "wordcount", lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("key counts differ: %d vs %d", len(seq), len(par))
	}
	for k, v := range seq {
		if par[k] != v {
			t.Fatalf("results differ at %q: %g vs %g", k, v, par[k])
		}
	}
}

func TestBackToBackRuns(t *testing.T) {
	master, _ := startCluster(t, 2)
	lines := testLines(t, 100)
	for i := 0; i < 3; i++ {
		if _, _, err := master.Run(context.Background(), "wordcount", lines, 4); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestStatsPhases(t *testing.T) {
	master, _ := startCluster(t, 2)
	_, stats, err := master.Run(context.Background(), "wordcount", testLines(t, 200), 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitWall <= 0 || stats.MergeWall < 0 || stats.TotalWall < stats.SplitWall {
		t.Errorf("implausible phase stats %+v", stats)
	}
	// TotalWall is measured end to end, not derived. The fold on arrival
	// runs inside the split phase and the merge tail starts at the
	// barrier, so the two phases tile the wall exactly.
	if stats.TotalWall != stats.SplitWall+stats.MergeWall {
		t.Errorf("TotalWall %v != SplitWall %v + MergeWall %v",
			stats.TotalWall, stats.SplitWall, stats.MergeWall)
	}
}
