package netmr

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ipso/internal/obs"
)

// startReduceCluster boots a master with the given config and n
// workers, returning the master and its address.
func startReduceCluster(t *testing.T, cfg MasterConfig, n int) (*Master, string) {
	t.Helper()
	master, err := NewMaster(mustRegistry(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < n; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if n > 0 {
		if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return master, addr
}

// TestInterStoreSliceRejectsRogue pins the serving side's input
// validation: a mismatched run, an out-of-range partition, and an
// unknown map task must all error (never panic), while an empty-but-held
// task answers with a nil partial that still acknowledges the task.
func TestInterStoreSliceRejectsRogue(t *testing.T) {
	s := newInterStore()
	s.setReducers(2)
	s.put("wc#1", 0, []partitionPartial{
		{ID: 0, Partial: pairsOf(map[string]float64{"a": 1})},
		{ID: 1, Partial: pairsOf(map[string]float64{"b": 2})},
	}, 2)
	s.put("wc#1", 3, []partitionPartial{{ID: 1, Partial: pairsOf(map[string]float64{"c": 3})}}, 2)

	if _, err := s.slice("other#9", 0, []int{0}); err == nil {
		t.Error("foreign run id accepted")
	}
	if _, err := s.slice("", 0, []int{0}); err == nil {
		t.Error("empty run id accepted")
	}
	for _, p := range []int{-1, 2, 99} {
		if _, err := s.slice("wc#1", p, []int{0}); err == nil {
			t.Errorf("out-of-range partition %d accepted", p)
		}
	}
	if _, err := s.slice("wc#1", 0, []int{7}); err == nil {
		t.Error("unknown map task accepted")
	}
	// Task 3 emitted nothing into partition 0: held, so acknowledged with
	// a nil partial rather than refused.
	got, err := s.slice("wc#1", 0, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []partitionPartial{
		{ID: 0, Partial: pairsOf(map[string]float64{"a": 1})},
		{ID: 3, Partial: pairs{}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slice = %+v, want %+v", got, want)
	}
	// A new run evicts the old one.
	s.put("wc#2", 0, []partitionPartial{{ID: 0, Partial: pairsOf(map[string]float64{"z": 1})}}, 2)
	if _, err := s.slice("wc#1", 0, []int{0}); err == nil {
		t.Error("evicted run still served")
	}
	if _, err := s.slice("wc#2", 0, []int{3}); err == nil {
		t.Error("evicted task still acknowledged")
	}
}

// TestDistributedReduce is the tentpole e2e: with 4 workers and reduce
// enabled, every map output stays worker-side, the R partitions are
// folded by workers (the master executes no per-key fold — its merge is
// only the union of R disjoint key spaces), intermediate bytes flow
// worker→worker, and the JobTrace attributes the reduce wall to
// distributed rtask launches.
func TestDistributedReduce(t *testing.T) {
	const workers, shards, R = 4, 8, 4
	master, _ := startReduceCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second,
		Reducers: R, Trace: true,
	}, workers)

	lines := testLines(t, 600)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed-reduce result diverged from reference")
	}

	if stats.Reducers != R {
		t.Errorf("Reducers = %d, want %d", stats.Reducers, R)
	}
	if stats.ReduceTasks != R {
		t.Errorf("ReduceTasks = %d, want %d", stats.ReduceTasks, R)
	}
	// Every winning map output persisted worker-side.
	if stats.MapOutputsStored != shards {
		t.Errorf("MapOutputsStored = %d, want %d", stats.MapOutputsStored, shards)
	}
	if stats.ShuffleBytes <= 0 {
		t.Errorf("ShuffleBytes = %d, want > 0 (reducers must fetch from peers)", stats.ShuffleBytes)
	}
	if stats.ReduceWall <= 0 {
		t.Errorf("ReduceWall = %v, want > 0", stats.ReduceWall)
	}

	trc := master.LastTrace()
	if trc == nil {
		t.Fatal("traced run produced no trace")
	}
	var rtaskOK, reducePhases int
	for _, sp := range trc.Spans() {
		if sp.Phase == "rtask" && sp.Outcome == outcomeOK {
			rtaskOK++
		}
		if sp.Launch < 0 && sp.Phase == "reduce" {
			reducePhases++
		}
	}
	if rtaskOK != R {
		t.Errorf("winning rtask launches = %d, want %d", rtaskOK, R)
	}
	if reducePhases != 1 {
		t.Errorf("master-level reduce phases = %d, want 1", reducePhases)
	}
	b := trc.Breakdown(stats)
	if b.Reduce <= 0 || b.MaxReduce <= 0 {
		t.Errorf("breakdown attributes no worker-side fold: Reduce=%g MaxReduce=%g", b.Reduce, b.MaxReduce)
	}
	// The headline invariant: MaxTask + MaxReduce + Ws + Wo = TotalWall
	// (Wo is clamped at zero, so allow that degenerate case).
	if sum := b.MaxTask + b.MaxReduce + b.Ws + b.Wo; b.Wo > 0 && math.Abs(sum-b.TotalWall) > 1e-6 {
		t.Errorf("MaxTask+MaxReduce+Ws+Wo = %g, want TotalWall %g", sum, b.TotalWall)
	}
}

// TestReduceMatchesReferenceAcrossConfigs: the reducer count is a pure
// performance knob — serial merge, engine merge and distributed reduce
// at several R must produce byte-identical results, for both the Combine
// and the group-then-Reduce fold paths.
func TestReduceMatchesReferenceAcrossConfigs(t *testing.T) {
	lines := testLines(t, 400)
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))

	for _, r := range []int{1, 2, 4, 8} {
		master, _ := startReduceCluster(t, MasterConfig{
			TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Reducers: r,
		}, 3)
		got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("R=%d: result diverged from reference", r)
		}
		if stats.ReduceTasks != r {
			t.Errorf("R=%d: ReduceTasks = %d", r, stats.ReduceTasks)
		}
	}
}

// TestRogueFetchRejected is the rogue-worker regression for the shuffle
// path: out-of-range partition ids, foreign run ids and unknown tasks
// sent to a worker's fetch listener must be answered with error frames —
// without panicking the serving worker or poisoning its connection for
// subsequent valid fetches.
func TestRogueFetchRejected(t *testing.T) {
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := w.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	w.store.setReducers(2)
	w.store.put("wc#1", 0, []partitionPartial{
		{ID: 0, Partial: pairsOf(map[string]float64{"a": 1})},
		{ID: 1, Partial: pairsOf(map[string]float64{"b": 2})},
	}, 2)

	if _, _, _, err := fetchPartition(addr, "wc#1", 99, []int{0}, defaultShuffleTimeout); err == nil {
		t.Error("out-of-range partition id served")
	}
	if _, _, _, err := fetchPartition(addr, "evil#7", 0, []int{0}, defaultShuffleTimeout); err == nil {
		t.Error("foreign job's run id served")
	}
	if _, _, _, err := fetchPartition(addr, "wc#1", 0, []int{5}, defaultShuffleTimeout); err == nil {
		t.Error("unknown map task served")
	}

	// One connection, rogue frames first, then a valid fetch: the server
	// must keep serving rather than hang up on the first bad request.
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	defer func() { _ = c.close() }()
	if err := c.send(message{Type: "ping"}, defaultShuffleTimeout); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.recv(defaultShuffleTimeout); err != nil || reply.Type != "error" {
		t.Fatalf("non-fetch frame got (%+v, %v), want an error frame", reply, err)
	}
	if err := c.send(message{Type: "fetch", Run: "wc#1", TaskID: -1, Tasks: []int{0}}, defaultShuffleTimeout); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.recv(defaultShuffleTimeout); err != nil || reply.Type != "error" {
		t.Fatalf("negative partition got (%+v, %v), want an error frame", reply, err)
	}
	if err := c.send(message{Type: "fetch", Run: "wc#1", TaskID: 1, Tasks: []int{0}}, defaultShuffleTimeout); err != nil {
		t.Fatal(err)
	}
	reply, err := c.recv(defaultShuffleTimeout)
	if err != nil || reply.Type != "fetchresult" {
		t.Fatalf("valid fetch after rogues got (%+v, %v), want fetchresult", reply, err)
	}
	want := []partitionPartial{{ID: 0, Partial: pairsOf(map[string]float64{"b": 2})}}
	if !reflect.DeepEqual(reply.Parts, want) {
		t.Fatalf("fetchresult parts = %+v, want %+v", reply.Parts, want)
	}
}

// TestRogueReduceErrorReassigned: a reducer answering its reduce task
// with an error frame is dropped and the partition retried on an honest
// worker; the job completes with the reference result.
func TestRogueReduceErrorReassigned(t *testing.T) {
	const R = 4
	master, addr := startReduceCluster(t, MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, Reducers: R,
	}, 2)
	// The rogue maps honestly — its output is served from a real shuffle
	// listener and copied to the master on mapdone — but answers every
	// reduce task with an error frame: the misbehaving-reducer shape the
	// master must answer with an eviction and a reassignment, never a
	// hang or a panic.
	holder, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := holder.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(holder.Stop)
	sc := newShardScratch()
	rogueWorker(t, addr, "rogue-reducer", fetch, func(m message) message {
		if m.Type == "reducetask" {
			return message{Type: "error", TaskID: m.TaskID, Message: "rogue: reduce refused"}
		}
		parts := runShardPartitioned(wordCountJob(), m.Records, sc, R)
		if _, _, _, err := holder.store.put(m.Run, m.TaskID, parts, R); err != nil {
			return message{Type: "error", TaskID: m.TaskID, Message: err.Error()}
		}
		return message{Type: "mapdone", TaskID: m.TaskID, Attempt: m.Attempt, Run: m.Run, Parts: parts}
	})
	if err := master.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 300)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result diverged from reference after rogue reducer eviction")
	}
	if stats.ReduceTasks != 4 {
		t.Errorf("ReduceTasks = %d, want 4", stats.ReduceTasks)
	}
	if stats.Reassignments == 0 {
		t.Error("rogue reducer's error frame caused no reassignment")
	}
}

// TestReducePlanRoutes pins the one fetch planner early and barrier
// dispatches share, without sockets: a live primary is fetched from
// (its live replica named for failover), a dead one is rerouted to its
// replica or served inline from the master-held copy (an empty slice
// included, so an early reducer's coverage reaches Total), and an output
// with no copy left is re-executed from lineage — unless the dispatch is
// early, which declines the whole plan and counts nothing. Every route
// around a loss starts the RecoveryWall clock once.
func TestReducePlanRoutes(t *testing.T) {
	const R = 2
	m, err := NewMaster(mustRegistry(t), MasterConfig{Reducers: R, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"a", "b", "dead"} {
		m.addFetchAddr(addr)
	}
	m.markAddrDead("dead")
	lines := testLines(t, 40)
	held := runShardPartitioned(wordCountJob(), lines[:20], newShardScratch(), R)
	if held[0].ID != 0 {
		t.Fatalf("fixture: the held output has no partition 0 (%+v)", held)
	}
	var stats Stats
	pl := &reducePlan{
		m: m, stats: &stats, job: wordCountJob(),
		mapLocs:      map[int]string{0: "a", 1: "dead", 2: "dead", 3: "b"},
		replicaLocs:  map[int]string{0: "b", 1: "a"},
		replicaParts: map[int][]partitionPartial{2: {held[0]}},
		shardRecords: func(task int) []string { return lines[20*(task-3) : 20*(task-2)] },
	}
	wantLocs := []fetchLoc{{Addr: "a", Tasks: []int{0, 1}}, {Addr: "b", Tasks: []int{3}}}
	wantReps := []fetchLoc{{Addr: "b", Tasks: []int{0}}}
	for p, wantInline := range [][]partitionPartial{
		{{ID: 2, Partial: held[0].Partial}},
		{{ID: 2}}, // task 2 held nothing for partition 1: an empty marker
	} {
		locs, inline, reps, ok := pl.route(p, false)
		if !ok || !reflect.DeepEqual(locs, wantLocs) || !reflect.DeepEqual(inline, wantInline) || !reflect.DeepEqual(reps, wantReps) {
			t.Fatalf("partition %d: route = (%v, %v, %v, %v), want (%v, %v, %v, true)", p, locs, inline, reps, ok, wantLocs, wantInline, wantReps)
		}
	}
	if stats.ReplicaFetches != R || pl.recoveryAt.IsZero() {
		t.Fatalf("after two reroutes: ReplicaFetches %d, recovery clock %v; want %d and started", stats.ReplicaFetches, pl.recoveryAt, R)
	}
	started := pl.recoveryAt

	// Task 4 lost its primary and has no copy anywhere.
	pl.mapLocs[4] = "dead"
	if _, _, _, ok := pl.route(0, false); ok {
		t.Fatal("an early plan needing a map re-execution was not declined")
	}
	if stats.ReplicaFetches != R || len(pl.replicaParts) != 1 {
		t.Fatalf("a declined plan counted %d replica fetches / cached %d copies", stats.ReplicaFetches, len(pl.replicaParts))
	}
	_, inline, _, ok := pl.route(0, true)
	if !ok || len(inline) != 2 || inline[1].ID != 4 {
		t.Fatalf("barrier plan with a lost output = (%v, %v), want task 4 re-executed inline", inline, ok)
	}
	rerun := runShardPartitioned(wordCountJob(), pl.shardRecords(4), newShardScratch(), R)
	if !reflect.DeepEqual(pl.replicaParts[4], rerun) {
		t.Fatal("the re-executed map output was not cached where an inline copy would be")
	}
	if pl.recoveryAt != started {
		t.Fatal("a later recovery restarted the RecoveryWall clock")
	}
}

// reduceFrameSeeds are the reduce/fetch wire shapes for the fuzz seed
// corpus.
func reduceFrameSeeds() []message {
	return []message{
		{Type: "reducetask", Job: "wc", TaskID: 1, Attempt: 0, Run: "wc#1",
			Locs: []fetchLoc{
				{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}},
				{Addr: "127.0.0.1:7002", Tasks: []int{1}},
			},
			Parts: []partitionPartial{{ID: 3, Partial: pairsOf(map[string]float64{"inline": 1})}}},
		{Type: "reducetask", Job: "", TaskID: -1, Run: "", Locs: []fetchLoc{{Addr: "", Tasks: nil}}},
		{Type: "fetch", Run: "wc#1", TaskID: 0, Tasks: []int{0, 1, 2}},
		{Type: "fetch", Run: "", TaskID: -9, Tasks: nil},
		{Type: "fetchresult", TaskID: 0, Parts: []partitionPartial{
			{ID: 0, Partial: pairsOf(map[string]float64{"a": 1.5})},
			{ID: 2, Partial: pairs{}},
		}},
		{Type: "mapdone", TaskID: 2, Attempt: 1, Run: "wc#1"},
		{Type: "result", TaskID: 1, Attempt: 2, Partial: pairsOf(map[string]float64{"folded": 9}), Bytes: 1 << 40},
		{Type: "morelocs", Run: "wc#1", TaskID: 2, Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{4}}}},
		{Type: "morelocs", Run: "wc#1", TaskID: 0, Message: "abort"},
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz when NETMR_WRITE_FUZZ_CORPUS is set. The files use the
// native Go fuzzing corpus format so `go test -fuzz` and the CI fuzz
// bursts pick them up without any -fuzztime spent rediscovering the
// valid frame shapes.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("NETMR_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set NETMR_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	for _, g := range fuzzSeedGroups(t) {
		dir := filepath.Join("testdata", "fuzz", g.target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, b := range g.bodies {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
			name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
