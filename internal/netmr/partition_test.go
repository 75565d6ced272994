package netmr

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestPartitionIndex pins down the routing contract both sides of the
// wire depend on: deterministic, in range, degenerate at parts<=1, and
// spread across partitions for realistic key sets.
func TestPartitionIndex(t *testing.T) {
	keys := []string{"", "a", "alpha", "beta", "πκλ", strings.Repeat("k", 300)}
	for _, k := range keys {
		if got := partitionIndex(k, 1); got != 0 {
			t.Errorf("partitionIndex(%q, 1) = %d, want 0", k, got)
		}
		if got := partitionIndex(k, 0); got != 0 {
			t.Errorf("partitionIndex(%q, 0) = %d, want 0", k, got)
		}
		for _, parts := range []int{2, 3, 7, 64} {
			got := partitionIndex(k, parts)
			if got < 0 || got >= parts {
				t.Fatalf("partitionIndex(%q, %d) = %d out of range", k, parts, got)
			}
			if again := partitionIndex(k, parts); again != got {
				t.Fatalf("partitionIndex(%q, %d) not deterministic: %d then %d", k, parts, got, again)
			}
		}
	}
	// 1000 distinct keys over 8 partitions: every partition must get some
	// share — a fixed hash seed makes this deterministic, not flaky.
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[partitionIndex(fmt.Sprintf("key-%d", i), 8)]++
	}
	for p, n := range counts {
		if n == 0 {
			t.Errorf("partition %d received no keys out of 1000", p)
		}
	}
}

// TestRunShardPartitioned: the partitioned shard execution must be a
// pure re-arrangement of the flat one — same keys, same values, each key
// in exactly the partition partitionIndex assigns, each partition's keys
// in the flat result's (emission) order, empty partitions omitted.
func TestRunShardPartitioned(t *testing.T) {
	lines := testLines(t, 120)
	jobs := map[string]Job{"reduce": wordCountJob()}
	combined := wordCountJob()
	combined.Combine = func(acc, v float64) float64 { return acc + v }
	jobs["combine"] = combined

	for name, job := range jobs {
		t.Run(name, func(t *testing.T) {
			flatResult := runShard(job, lines, newShardScratch())
			want := mapOf(t, flatResult)
			rank := make(map[string]int, len(flatResult.Keys))
			for i, k := range flatResult.Keys {
				rank[k] = i
			}
			for _, parts := range []int{1, 2, 4, 9} {
				got := runShardPartitioned(job, lines, newShardScratch(), parts)
				flat := map[string]float64{}
				for _, p := range got {
					if p.ID < 0 || p.ID >= parts {
						t.Fatalf("parts=%d: partition id %d out of range", parts, p.ID)
					}
					if len(p.Partial.Keys) == 0 {
						t.Fatalf("parts=%d: empty partition %d shipped", parts, p.ID)
					}
					for i, k := range p.Partial.Keys {
						if idx := partitionIndex(k, parts); idx != p.ID {
							t.Fatalf("parts=%d: key %q in partition %d, hashes to %d", parts, k, p.ID, idx)
						}
						if i > 0 && rank[k] < rank[p.Partial.Keys[i-1]] {
							t.Fatalf("parts=%d: partition %d lists %q after %q, against emission order", parts, p.ID, k, p.Partial.Keys[i-1])
						}
						if _, dup := flat[k]; dup {
							t.Fatalf("parts=%d: key %q shipped twice", parts, k)
						}
						flat[k] = p.Partial.Vals[i]
					}
				}
				if !reflect.DeepEqual(flat, want) {
					t.Fatalf("parts=%d: partitioned union diverged from flat shard result", parts)
				}
			}
		})
	}
}

// TestValidateParts: partition ids outside [0, R) must be rejected at
// dispatch, never held for a reduce plan.
func TestValidateParts(t *testing.T) {
	ok := []partitionPartial{{ID: 0}, {ID: 3}}
	if err := validateParts(ok, 4); err != nil {
		t.Errorf("valid parts rejected: %v", err)
	}
	for _, bad := range [][]partitionPartial{
		{{ID: -1}},
		{{ID: 4}},
		{{ID: 0}, {ID: 99}},
	} {
		if err := validateParts(bad, 4); err == nil {
			t.Errorf("validateParts(%+v, 4) accepted out-of-range id", bad)
		}
	}
}

// TestResultsIdenticalAcrossPartitionConfigs: batching, shard count and
// pool size are pure performance knobs — the master's fold on arrival
// must return exactly what the serialMerge oracle returns over the same
// shards, on the Combine and the grouped Reduce paths, whatever order
// the results arrive in, and the split phase and merge tail must tile
// the run's wall exactly.
func TestResultsIdenticalAcrossPartitionConfigs(t *testing.T) {
	lines := testLines(t, 500)
	for _, tc := range []struct{ batch, shards, workers int }{
		{1, 12, 2}, {4, 12, 2}, {1, 7, 3}, {3, 20, 1},
	} {
		name := fmt.Sprintf("batch%d-shards%d-workers%d", tc.batch, tc.shards, tc.workers)
		t.Run(name, func(t *testing.T) {
			for _, combine := range []bool{false, true} {
				reg := pipelineRegistry(t, combine, 0)
				job, _ := reg.lookup("wordcount")
				partials := make([]pairs, tc.shards)
				for i := range partials {
					lo, hi := len(lines)*i/tc.shards, len(lines)*(i+1)/tc.shards
					partials[i] = runShard(job, lines[lo:hi], newShardScratch())
				}
				want, err := serialMerge(job, partials)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, _ := runPipelineCluster(t, reg, MasterConfig{
					TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, MaxTaskBatch: tc.batch,
				}, WorkerConfig{}, tc.workers, tc.shards, lines, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("combine=%v: result diverged from the serialMerge oracle", combine)
				}
				if stats.Completed != tc.shards {
					t.Errorf("combine=%v: Completed = %d, want %d", combine, stats.Completed, tc.shards)
				}
				if stats.TotalWall != stats.SplitWall+stats.MergeWall {
					t.Errorf("combine=%v: TotalWall %v != SplitWall+MergeWall %v", combine, stats.TotalWall, stats.SplitWall+stats.MergeWall)
				}
			}
		})
	}
}

// rogueWorker completes a valid hello as id (advertising fetch as its
// shuffle address) and answers every frame but ping with the frame reply
// builds — the malformed shapes a misbehaving or malicious worker could
// ship, which must never crash the master.
func rogueWorker(t *testing.T, addr, id, fetch string, reply func(m message) message) {
	t.Helper()
	c := rawHello(t, addr, message{Type: "hello", ID: id, Jobs: []string{"wordcount"}, Version: protocolVersion, Fetch: fetch})
	if ack, err := c.recv(5 * time.Second); err != nil || ack.Type != "helloack" {
		t.Fatalf("rogue hello got (%+v, %v), want a helloack", ack, err)
	}
	go func() {
		for {
			m, err := c.recv(0)
			if err != nil {
				return
			}
			if m.Type == "ping" {
				m = message{Type: "pong"}
			} else {
				m = reply(m)
			}
			if c.send(m, 5*time.Second) != nil {
				return
			}
		}
	}()
}

// rawHello dials addr and sends hello on a bare conn, closed at cleanup.
func rawHello(t *testing.T, addr string, hello message) *conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	t.Cleanup(func() { _ = c.close() })
	if err := c.send(hello, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResultFrameSmuggledPartsDropped: a "result" frame carrying a Parts
// list with an out-of-range partition id skips validateParts (a flat
// result has no partitions to validate). The master must drop the
// payload, fold the flat partial, and finish with correct output.
func TestResultFrameSmuggledPartsDropped(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	sc := newShardScratch()
	rogueWorker(t, addr, "rogue", "127.0.0.1:1", func(m message) message {
		return message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt,
			Partial: runShard(wordCountJob(), m.Records, sc),
			Parts:   []partitionPartial{{ID: 99, Partial: pairsOf(map[string]float64{"smuggled": 1})}}}
	})
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 200)
	got, _, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))
	if _, ok := got["smuggled"]; ok {
		t.Error("smuggled partition payload leaked into the result")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result diverged from reference after dropping smuggled parts")
	}
}

// TestPresultOutOfRangePartsFailsLaunch (named for the pre-split result
// frame this check first guarded): a mapdone whose inline Parts carry a
// partition id outside [0, R) must fail that worker's launch (never be
// held for a reduce plan), and the job must still complete via
// reassignment to an honest worker.
func TestPresultOutOfRangePartsFailsLaunch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, Reducers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	sc := newShardScratch()
	rogueWorker(t, addr, "rogue", "127.0.0.1:1", func(m message) message {
		if m.Type != "task" {
			return message{Type: "error", TaskID: m.TaskID, Message: "rogue"}
		}
		return message{Type: "mapdone", TaskID: m.TaskID, Attempt: m.Attempt, Run: m.Run,
			Parts: []partitionPartial{{ID: 99, Partial: runShard(wordCountJob(), m.Records, sc)}}}
	})
	honest, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := honest.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(honest.Stop)
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 200)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result diverged from reference with a rogue mapdone worker in the pool")
	}
	// The rogue's first bad frame drops it; any shard it had been
	// assigned must have been reassigned to the honest worker.
	for _, ws := range stats.PerWorker {
		if ws.ID == "rogue" && ws.ShardsRun > 0 {
			t.Errorf("rogue mapdone worker credited with %d shards", ws.ShardsRun)
		}
	}
}

// inlinePartsFrameSeeds are mapdone shapes carrying a map output inline
// (the master-held replica) for the fuzz seed corpus.
func inlinePartsFrameSeeds() []message {
	return []message{
		{Type: "mapdone", TaskID: 1, Attempt: 1, Run: "wc#3", Parts: []partitionPartial{
			{ID: 0, Partial: pairsOf(map[string]float64{"a": 1, "b": 2})},
			{ID: 2, Partial: pairsOf(map[string]float64{"c": -3.5})},
		}},
		{Type: "mapdone", TaskID: 0, Parts: []partitionPartial{{ID: 7}}},
		{Type: "mapdone"},
	}
}

// spanFrameSeeds are traced shapes (trace IDs and span summaries) for
// the fuzz seed corpus.
func spanFrameSeeds() []message {
	return []message{
		{Type: "result", TaskID: 1, Attempt: 1, Partial: pairsOf(map[string]float64{"a": 1}), Trace: "wc-1", Spans: []spanSummary{
			{Phase: "decode", Start: 0, End: 0.002},
			{Phase: "map", Start: 0.002, End: 0.8},
			{Phase: "combine", Start: 0.8, End: 0.9},
			{Phase: "encode", Start: 0.9, End: 0.95},
		}},
		{Type: "mapdone", TaskID: 3, Trace: "j-9", Spans: []spanSummary{
			{Phase: "partition", Start: 0.1, End: 0.2},
		}, Parts: []partitionPartial{{ID: 0, Partial: pairsOf(map[string]float64{"k": 1})}}},
		{Type: "result", TaskID: 2, Trace: "", Spans: nil},
		{Type: "task", Job: "wc", TaskID: 0, Records: []string{"r"}, Trace: "wc-2"},
	}
}
