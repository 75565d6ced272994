package netmr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// combineSumJob is wordcount with a Combine: the streaming fold path,
// which the spill merge must reproduce exactly too.
func combineSumJob() Job {
	j := wordCountJob()
	j.Combine = func(a, b float64) float64 { return a + b }
	return j
}

// randomTaskPartials builds one reduce partition's gathered inputs under
// a chosen key distribution: tasks map-task ids with skewed, uniform or
// degenerate key spaces, values small integers so float folds stay exact.
func randomTaskPartials(rng *rand.Rand, tasks, keys int, dist string) []taskPartial {
	inputs := make([]taskPartial, 0, tasks)
	for task := 0; task < tasks; task++ {
		m := map[string]float64{}
		n := 1 + rng.Intn(keys)
		for i := 0; i < n; i++ {
			var k string
			switch dist {
			case "skewed": // zipf-ish: low key ids dominate
				k = fmt.Sprintf("key-%d", rng.Intn(1+rng.Intn(keys)))
			case "disjoint": // every task its own key space
				k = fmt.Sprintf("task%d-key-%d", task, i)
			case "same": // every task hits one hot key
				k = "hot"
			default: // uniform
				k = fmt.Sprintf("key-%d", rng.Intn(keys))
			}
			m[k] = float64(1 + rng.Intn(5))
		}
		inputs = append(inputs, taskPartial{task: task, partial: m})
	}
	return inputs
}

// TestSpillFoldMatchesInMemory is the spill property test: for every
// budget — including budgets so tight every add flushes a run — the
// loser-tree merge of spilled runs must produce exactly the fold the
// all-in-memory path produces, across key distributions and both fold
// paths (Combine and group-then-Reduce).
func TestSpillFoldMatchesInMemory(t *testing.T) {
	jobs := map[string]Job{"reduce": wordCountJob(), "combine": combineSumJob()}
	budgets := []int64{1, 64, 256, 2048, 1 << 20}
	for _, dist := range []string{"uniform", "skewed", "disjoint", "same"} {
		for jobName, job := range jobs {
			rng := rand.New(rand.NewSource(int64(len(dist)) * 31))
			for trial := 0; trial < 3; trial++ {
				inputs := randomTaskPartials(rng, 2+rng.Intn(12), 1+rng.Intn(40), dist)
				ref := make([]taskPartial, len(inputs))
				copy(ref, inputs)
				sort.Slice(ref, func(i, j int) bool { return ref[i].task < ref[j].task })
				want := foldTaskPartials(job, ref)
				for _, budget := range budgets {
					f := newSpillFolder(budget, t.TempDir())
					for _, in := range inputs {
						if err := f.add(in.task, in.partial); err != nil {
							t.Fatalf("%s/%s budget=%d: add: %v", dist, jobName, budget, err)
						}
					}
					got, merged, err := f.fold(job)
					if err != nil {
						t.Fatalf("%s/%s budget=%d: fold: %v", dist, jobName, budget, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s budget=%d (merged=%v): fold diverged from in-memory reference", dist, jobName, budget, merged)
					}
					if budget == 1 && !merged && f.spillRuns == 0 && len(want) > 0 {
						t.Fatalf("%s/%s: 1-byte budget never spilled", dist, jobName)
					}
				}
			}
		}
	}
}

// TestInterStoreSpillMatchesMemory: the map-side store must serve the
// identical partition slices whether a task's set is resident or read
// back from its spill file, at every budget.
func TestInterStoreSpillMatchesMemory(t *testing.T) {
	const R, tasks = 3, 6
	rng := rand.New(rand.NewSource(11))
	sets := make([][]partitionPartial, tasks)
	for task := range sets {
		parts := make([]partitionPartial, 0, R)
		for p := 0; p < R; p++ {
			m := map[string]float64{}
			for i := 0; i < 1+rng.Intn(30); i++ {
				m[fmt.Sprintf("k%d-%d", p, rng.Intn(20))] = float64(rng.Intn(9))
			}
			parts = append(parts, partitionPartial{ID: p, Partial: m})
		}
		sets[task] = parts
	}
	reference := newInterStore()
	for task, parts := range sets {
		if _, _, _, err := reference.put("wc#1", task, parts, R); err != nil {
			t.Fatal(err)
		}
	}
	allTasks := make([]int, tasks)
	for i := range allTasks {
		allTasks[i] = i
	}
	for _, budget := range []int64{1, 200, 4096, 1 << 20} {
		s := newInterStore()
		s.configure(budget, t.TempDir())
		var spilled int64
		for task, parts := range sets {
			_, n, _, err := s.put("wc#1", task, parts, R)
			if err != nil {
				t.Fatalf("budget=%d: put: %v", budget, err)
			}
			spilled += n
		}
		for p := 0; p < R; p++ {
			want, err := reference.slice("wc#1", p, allTasks)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.slice("wc#1", p, allTasks)
			if err != nil {
				t.Fatalf("budget=%d: slice(%d): %v", budget, p, err)
			}
			// A spilled empty section reads back as an empty map where the
			// resident path keeps nil; both mean "held, no keys".
			for i := range got {
				if len(got[i].Partial) == 0 {
					got[i].Partial = nil
				}
				if len(want[i].Partial) == 0 {
					want[i].Partial = nil
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget=%d: partition %d slice diverged from resident reference", budget, p)
			}
		}
		peak, totalSpilled, runs := s.stats()
		if peak > budget {
			t.Errorf("budget=%d: peak resident bytes %d exceed the budget", budget, peak)
		}
		if budget == 1 && (runs == 0 || totalSpilled == 0 || totalSpilled != spilled) {
			t.Errorf("budget=1: spill accounting runs=%d spilled=%d (put-reported %d)", runs, totalSpilled, spilled)
		}
	}
}

// TestEvictedRunReducersReset is the cross-run eviction regression: a
// new run must adopt its own reducer count, so a stale fetch against the
// evicted run — even one whose partition id was valid under the old
// count — gets an error frame, not a serve from a confused table.
func TestEvictedRunReducersReset(t *testing.T) {
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := w.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)

	parts4 := []partitionPartial{
		{ID: 0, Partial: map[string]float64{"a": 1}},
		{ID: 3, Partial: map[string]float64{"d": 4}},
	}
	if _, _, _, err := w.store.put("wc#1", 0, parts4, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fetchPartition(addr, "wc#1", 3, []int{0}, defaultShuffleTimeout); err != nil {
		t.Fatalf("partition 3 under the 4-reducer run refused: %v", err)
	}
	// New run with a smaller reducer count evicts the old one wholesale.
	if _, _, _, err := w.store.put("wc#2", 0, []partitionPartial{{ID: 0, Partial: map[string]float64{"z": 1}}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fetchPartition(addr, "wc#1", 0, []int{0}, defaultShuffleTimeout); err == nil {
		t.Error("stale fetch against the evicted run served")
	}
	if _, _, _, err := fetchPartition(addr, "wc#2", 3, []int{0}, defaultShuffleTimeout); err == nil {
		t.Error("partition valid only under the evicted run's count served")
	}
	if _, _, _, err := fetchPartition(addr, "wc#2", 1, []int{0}, defaultShuffleTimeout); err != nil {
		t.Errorf("valid fetch against the new run refused: %v", err)
	}
}

// TestSpillCluster is the out-of-core e2e: a cluster whose workers run
// under a tight spill budget must produce the byte-identical reference
// result while actually spilling, never holding more than the budget
// resident in the map-output store.
func TestSpillCluster(t *testing.T) {
	const workers, shards, R = 3, 8, 3
	const budget = 2048
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second,
		Reducers: R, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	pool := make([]*Worker, 0, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(mustRegistry(t), WithWorkerConfig(WorkerConfig{
			SpillBudget: budget, SpillDir: t.TempDir(),
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		pool = append(pool, w)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 1500)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spill-budget cluster result diverged from reference")
	}
	if stats.SpillRuns == 0 || stats.SpilledBytes == 0 {
		t.Errorf("spill accounting empty under a %d-byte budget: runs=%d bytes=%d", budget, stats.SpillRuns, stats.SpilledBytes)
	}
	for i, w := range pool {
		peak, _, _ := w.StoreStats()
		if peak > budget {
			t.Errorf("worker %d: peak resident store %d bytes exceeds the %d budget", i, peak, budget)
		}
	}
	if trc := master.LastTrace(); trc != nil {
		b := trc.Breakdown(stats)
		if b.Spill <= 0 {
			t.Errorf("trace breakdown attributes no spill time: %+v", b)
		}
	}
}

// TestReplicaRecoveryAfterMapperLoss is the chaos test of the tentpole:
// a mapper that dies right after its first mapdone — shuffle listener
// and only primary copy gone with it — must not fail the job or change
// its output: the reduce phase reroutes to the peer replica (or the
// master-held copy / lineage re-execution) and completes.
func TestReplicaRecoveryAfterMapperLoss(t *testing.T) {
	const workers, shards, R = 3, 6, 3
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 60 * time.Second, Reducers: R,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			w.killAfterMapdone = true
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 800)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := runShard(wordCountJob(), lines, newShardScratch())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-recovery result diverged from reference")
	}
	if stats.ReduceTasks != R {
		t.Errorf("ReduceTasks = %d, want %d", stats.ReduceTasks, R)
	}
	// The dead mapper completed at least its first shard, so at least one
	// partition had to route around the loss — via the peer replica in
	// this all-comp cluster.
	if stats.ReplicaFetches == 0 {
		t.Errorf("ReplicaFetches = 0, want > 0 (recovery must use the replica, not silently lose data)")
	}
	if stats.RecoveryWall <= 0 {
		t.Errorf("RecoveryWall = %v, want > 0", stats.RecoveryWall)
	}
}
