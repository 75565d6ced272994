package netmr

import (
	"context"
	"fmt"
	"math/rand"
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

// TestMergeEngineMatchesSerialMerge drives the engine with a mix of
// pre-partitioned and flat feeds, in shuffled arrival orders, and checks
// the result is byte-identical to the legacy serial merge — for both the
// Combine fold and the grouped Reduce paths, at several widths.
func TestMergeEngineMatchesSerialMerge(t *testing.T) {
	lines := testLines(t, 300)
	const shards = 10
	per := len(lines) / shards

	plain := wordCountJob()
	combined := wordCountJob()
	combined.Combine = func(acc, v float64) float64 { return acc + v }

	for name, job := range map[string]Job{"reduce": plain, "combine": combined} {
		t.Run(name, func(t *testing.T) {
			partials := make([]pairs, shards)
			for i := range partials {
				partials[i] = runShard(job, lines[i*per:(i+1)*per], newShardScratch())
			}
			want, err := serialMerge(job, partials)
			if err != nil {
				t.Fatal(err)
			}

			for _, parts := range []int{1, 2, 4, 7} {
				for seed := int64(0); seed < 3; seed++ {
					eng := newMergeEngine(job, parts, shards)
					order := rand.New(rand.NewSource(seed)).Perm(shards)
					for _, i := range order {
						if i%2 == 0 {
							// Even shards arrive pre-partitioned (a presult)...
							eng.feed(runShardPartitioned(job, lines[i*per:(i+1)*per], newShardScratch(), parts), pairs{})
						} else {
							// ...odd shards arrive flat (a result frame).
							eng.feed(nil, partials[i])
						}
					}
					got, err := eng.finalize(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("parts=%d seed=%d: engine result diverged from serial merge", parts, seed)
					}
				}
			}
		})
	}
}

// TestMergeEngineShutdownIdempotent: an abandoned engine (Run erroring
// out mid-job) must be safe to shut down repeatedly, including after
// finalize.
func TestMergeEngineShutdownIdempotent(t *testing.T) {
	eng := newMergeEngine(wordCountJob(), 3, 4)
	eng.feed(nil, pairsOf(map[string]float64{"a": 1}))
	eng.shutdown()
	eng.shutdown()
	if _, err := eng.finalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := eng.overlapped(); d <= 0 {
		t.Errorf("overlapped busy after feed = %v, want > 0", d)
	}
	fresh := newMergeEngine(wordCountJob(), 2, 1)
	if d := fresh.overlapped(); d != 0 {
		t.Errorf("overlapped busy of unfed engine = %v, want 0", d)
	}
	fresh.shutdown()
}

// TestValidateParts: partition ids outside [0, P) must be rejected at
// dispatch, never routed.
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

// runWordCount runs one wordcount job on a fresh cluster with the given
// master config and returns the result and stats.
func runWordCount(t *testing.T, cfg MasterConfig, workers int, lines []string, shards int) (map[string]float64, Stats) {
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
	for i := 0; i < workers; i++ {
		w, err := NewWorker(mustRegistry(t))
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
	out, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// TestResultsIdenticalAcrossPartitionConfigs: the partition count, the
// overlap, and the SerialMerge fallback are pure performance knobs — the
// reduced output must be identical under every configuration.
func TestResultsIdenticalAcrossPartitionConfigs(t *testing.T) {
	lines := testLines(t, 500)
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))

	base := MasterConfig{TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second}
	configs := map[string]MasterConfig{
		"serial":       {TaskTimeout: base.TaskTimeout, JobTimeout: base.JobTimeout, SerialMerge: true},
		"partitions-1": {TaskTimeout: base.TaskTimeout, JobTimeout: base.JobTimeout, Partitions: 1},
		"partitions-3": {TaskTimeout: base.TaskTimeout, JobTimeout: base.JobTimeout, Partitions: 3},
		"partitions-8": {TaskTimeout: base.TaskTimeout, JobTimeout: base.JobTimeout, Partitions: 8},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			got, stats := runWordCount(t, cfg, 2, lines, 12)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result diverged from local reference", name)
			}
			if cfg.SerialMerge {
				if stats.MergeOverlapWall != 0 {
					t.Errorf("SerialMerge overlapped %v, want 0", stats.MergeOverlapWall)
				}
				if stats.Partitions != 1 {
					t.Errorf("SerialMerge Partitions = %d, want 1", stats.Partitions)
				}
			} else if cfg.Partitions > 1 && stats.PrePartitioned == 0 {
				t.Errorf("%s: no result arrived pre-partitioned (PrePartitioned = 0)", name)
			}
			if stats.TotalWall > stats.SplitWall+stats.MergeWall {
				t.Errorf("%s: TotalWall %v > SplitWall+MergeWall %v", name, stats.TotalWall, stats.SplitWall+stats.MergeWall)
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

// TestResultFrameSmuggledPartsDropped is the regression test for the
// router panic: a "result" frame carrying a Parts list with an
// out-of-range partition id used to skip validateParts and crash the
// merge router goroutine. The master must drop the payload, merge the
// flat partial, and finish with correct output — without counting the
// result as pre-partitioned.
func TestResultFrameSmuggledPartsDropped(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Partitions: 4,
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
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
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
	if stats.PrePartitioned != 0 {
		t.Errorf("smuggled parts counted as pre-partitioned: %d", stats.PrePartitioned)
	}
}

// TestPresultOutOfRangePartsFailsLaunch: a presult whose partition ids
// fall outside [0, P) must fail that worker's launch (never reach the
// router), and the job must still complete via reassignment to an
// honest worker.
func TestPresultOutOfRangePartsFailsLaunch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, Partitions: 4,
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
		return message{Type: "presult", TaskID: m.TaskID, Attempt: m.Attempt,
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
		t.Fatal("result diverged from reference with a rogue presult worker in the pool")
	}
	// The rogue's first bad frame drops it; any shard it had been
	// assigned must have been reassigned to the honest worker.
	for _, ws := range stats.PerWorker {
		if ws.ID == "rogue" && ws.ShardsRun > 0 {
			t.Errorf("rogue presult worker credited with %d shards", ws.ShardsRun)
		}
	}
}

// presultFrameSeeds are presult shapes for the fuzz seed corpus.
func presultFrameSeeds() []message {
	return []message{
		{Type: "presult", TaskID: 1, Attempt: 1, Parts: []partitionPartial{
			{ID: 0, Partial: pairsOf(map[string]float64{"a": 1, "b": 2})},
			{ID: 2, Partial: pairsOf(map[string]float64{"c": -3.5})},
		}},
		{Type: "presult", TaskID: 0, Parts: []partitionPartial{{ID: 7}}},
		{Type: "presult"},
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
		{Type: "presult", TaskID: 3, Trace: "j-9", Spans: []spanSummary{
			{Phase: "partition", Start: 0.1, End: 0.2},
		}, Parts: []partitionPartial{{ID: 0, Partial: pairsOf(map[string]float64{"k": 1})}}},
		{Type: "result", TaskID: 2, Trace: "", Spans: nil},
		{Type: "task", Job: "wc", TaskID: 0, Records: []string{"r"}, Trace: "wc-2"},
	}
}
