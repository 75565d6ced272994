package netmr

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestPairsRoundTripKeepsOrder: a flat partial crosses the wire and a
// spill section in the order its producer emitted it — decode→encode is
// the identity on keys, values and bytes, with no sort anywhere.
func TestPairsRoundTripKeepsOrder(t *testing.T) {
	p := pairs{Keys: []string{"zeta", "alpha", "", "mid", "πκλ"}, Vals: []float64{1, -2.5, 3, math.Inf(1), 1e-300}}
	in := message{Type: "mapdone", TaskID: 3, Partial: p, Parts: []partitionPartial{{ID: 1, Partial: p}}}
	frame := encodeBinary(t, in)
	got := decodeBinary(t, frame)
	if !reflect.DeepEqual(got.Partial, p) || !reflect.DeepEqual(got.Parts[0].Partial, p) {
		t.Fatalf("decoded partials %+v / %+v, want %+v in emission order", got.Partial, got.Parts[0].Partial, p)
	}
	if again := encodeBinary(t, got); !bytes.Equal(again, frame) {
		t.Fatal("decode→encode changed the frame bytes")
	}

	sf, _, _, err := writeSpillFile(t.TempDir(), 0, []partitionPartial{{ID: 1, Partial: p}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.remove()
	sec, err := sf.section(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sec, p) {
		t.Fatalf("spill section read back %+v, want %+v", sec, p)
	}
}

// TestFramesByteDeterministic: the bytes of every bulk frame are a
// function of the task's inputs alone. Running the same shard twice —
// on a scratch reused across other shards in between, and on a fresh
// one — must give byte-identical replicate, mapdone and result frames,
// and folding the same reduce inputs twice (in memory and through spill
// runs) byte-identical reduce result frames.
func TestFramesByteDeterministic(t *testing.T) {
	const R = 3
	lines := testLines(t, 400)
	shardA, shardB := lines[:200], lines[200:]
	for name, job := range map[string]Job{"reduce": wordCountJob(), "combine": combineSumJob()} {
		t.Run(name, func(t *testing.T) {
			frames := func(sc *shardScratch) [][]byte {
				partsA := runShardPartitioned(job, shardA, sc, R)
				out := [][]byte{
					encodeBinary(t, message{Type: "replicate", Run: "wc#1", TaskID: 0, Parts: partsA, Reducers: R}),
					encodeBinary(t, message{Type: "mapdone", Run: "wc#1", TaskID: 0, Parts: partsA}),
				}
				partsB := runShardPartitioned(job, shardB, sc, R)
				for p := 0; p < R; p++ {
					var inputs []taskPartial
					for task, parts := range [][]partitionPartial{partsA, partsB} {
						for _, pp := range parts {
							if pp.ID == p {
								inputs = append(inputs, taskPartial{task: task, partial: pp.Partial})
							}
						}
					}
					folded, err := foldTaskPartials(job, inputs)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, encodeBinary(t, message{Type: "result", TaskID: p, Partial: folded}))
					f := newSpillFolder(1, t.TempDir())
					for _, in := range inputs {
						if err := f.add(in.task, in.partial); err != nil {
							t.Fatal(err)
						}
					}
					spilled, _, err := f.fold(job)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, encodeBinary(t, message{Type: "result", TaskID: p, Partial: spilled}))
				}
				return append(out, encodeBinary(t, message{Type: "result", TaskID: 0, Partial: runShard(job, shardA, sc)}))
			}
			reused := newShardScratch()
			first := frames(reused)
			runShardPartitioned(job, lines[100:300], reused, R+2) // other work on the same scratch
			for round, got := range [][][]byte{frames(reused), frames(newShardScratch())} {
				for i := range first {
					if !bytes.Equal(got[i], first[i]) {
						t.Fatalf("round %d: frame %d differs from the first run's bytes", round, i)
					}
				}
			}
		})
	}
}

// TestFoldsRejectRepeatedKey: a key repeated within one partial is
// never folded twice. Every fold — the reduce task's in-memory and
// spilled folds, the serial merge, the master's fold fed one result at a
// time — fails with errDuplicateKey naming it, while the same key in two
// partials folds normally.
func TestFoldsRejectRepeatedKey(t *testing.T) {
	dup := pairs{Keys: []string{"dup", "x", "dup"}, Vals: []float64{1, 1, 1}}
	clean := pairs{Keys: []string{"dup", "x"}, Vals: []float64{1, 1}}
	for name, job := range map[string]Job{"reduce": wordCountJob(), "combine": combineSumJob()} {
		t.Run(name, func(t *testing.T) {
			ok := []taskPartial{{task: 0, partial: clean}, {task: 1, partial: clean}}
			bad := []taskPartial{{task: 0, partial: clean}, {task: 1, partial: dup}}
			got, err := foldTaskPartials(job, ok)
			if err != nil {
				t.Fatal(err)
			}
			if m := mapOf(t, got); m["dup"] != 2 || m["x"] != 2 {
				t.Fatalf("fold of two clean partials = %v", m)
			}
			if _, err := foldTaskPartials(job, bad); !errors.Is(err, errDuplicateKey) || !strings.Contains(err.Error(), `map task 1's partial repeats key "dup"`) {
				t.Fatalf("reduce fold of a repeated key: %v, want errDuplicateKey naming task 1", err)
			}
			for _, budget := range []int64{0, 1} {
				f := newSpillFolder(budget, t.TempDir())
				for _, in := range bad {
					if err := f.add(in.task, in.partial); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := f.fold(job); !errors.Is(err, errDuplicateKey) {
					t.Fatalf("spill fold at budget %d of a repeated key: %v, want errDuplicateKey", budget, err)
				}
			}
			if _, err := serialMerge(job, []pairs{clean, dup}); !errors.Is(err, errDuplicateKey) {
				t.Fatalf("serial merge of a repeated key: %v, want errDuplicateKey", err)
			}
			f := newKeyFold(job, 0)
			if err := f.add(clean); err != nil {
				t.Fatal(err)
			}
			if err := f.add(dup); !errors.Is(err, errDuplicateKey) || !strings.Contains(err.Error(), `key "dup"`) {
				t.Fatalf("fold on arrival of a repeated key: %v, want errDuplicateKey naming the key", err)
			}
		})
	}
	if _, err := unionPairs([]pairs{clean, {Keys: []string{"x"}, Vals: []float64{5}}}); !errors.Is(err, errDuplicateKey) {
		t.Fatalf("union of partitions sharing a key: %v, want errDuplicateKey", err)
	}
}

// TestRogueShufflePeerRepeatedKey drives a real reducer against a rogue
// shuffle peer whose fetchresult repeats a key within one map task's
// partial. The reducer must fail the launch with an error frame naming
// the key — never answer a result that counts it twice — in memory and
// under a spill budget alike; the same peer serving the key once per
// task gets a correct result.
func TestRogueShufflePeerRepeatedKey(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = peer.Close() })
	go func() {
		for {
			raw, err := peer.Accept()
			if err != nil {
				return
			}
			go func() {
				c := newConn(raw)
				defer func() { _ = c.close() }()
				for {
					m, err := c.recv(5 * time.Second)
					if err != nil {
						return
					}
					p := pairs{Keys: []string{"dup", "x"}, Vals: []float64{1, 1}}
					if m.Run == "rogue#1" {
						p = pairs{Keys: []string{"dup", "x", "dup"}, Vals: []float64{1, 1, 1}}
					}
					parts := make([]partitionPartial, 0, len(m.Tasks))
					for _, task := range m.Tasks {
						parts = append(parts, partitionPartial{ID: task, Partial: p})
					}
					if c.send(message{Type: "fetchresult", TaskID: m.TaskID, Parts: parts}, 5*time.Second) != nil {
						return
					}
				}
			}()
		}
	}()

	for _, budget := range []int64{0, 1} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(mustRegistry(t), WithWorkerConfig(WorkerConfig{SpillBudget: budget, SpillDir: t.TempDir()}))
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan error, 1)
		go func() { started <- w.Start(ln.Addr().String()) }()
		raw, err := ln.Accept()
		_ = ln.Close()
		if err != nil {
			t.Fatal(err)
		}
		master := newConn(raw)
		if hello, err := master.recv(5 * time.Second); err != nil || hello.Type != "hello" {
			t.Fatalf("worker hello: (%+v, %v)", hello, err)
		}
		if err := master.send(message{Type: "helloack", Reducers: 1}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := <-started; err != nil {
			t.Fatal(err)
		}
		reduce := func(run string) message {
			t.Helper()
			task := message{Type: "reducetask", Job: "wordcount", TaskID: 0, Run: run,
				Locs: []fetchLoc{{Addr: peer.Addr().String(), Tasks: []int{0, 1}}}}
			if err := master.send(task, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			reply, err := master.recv(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return reply
		}
		if reply := reduce("honest#1"); reply.Type != "result" || !reflect.DeepEqual(mapOf(t, reply.Partial), map[string]float64{"dup": 2, "x": 2}) {
			t.Fatalf("budget %d: honest peer's reduce answered %+v, want dup=2 x=2", budget, reply)
		}
		reply := reduce("rogue#1")
		if reply.Type != "error" || !strings.Contains(reply.Message, `repeats key "dup"`) {
			t.Fatalf("budget %d: rogue peer's reduce answered %q %q %+v, want an error frame naming the repeated key", budget, reply.Type, reply.Message, reply.Partial)
		}
		if reply.Fetch != "" {
			t.Errorf("budget %d: fold failure blamed on fetch from %q", budget, reply.Fetch)
		}
		_ = master.close()
		w.Stop()
	}
}

// TestMasterRejectsRepeatedKey: the master's own folds refuse a key a
// worker's result repeats. A rogue map worker under the master's fold,
// and rogue reducers whose partitions share a key in the distributed
// reduce's union, must fail the run with errDuplicateKey naming the
// shard — never return an output holding one value for two.
func TestMasterRejectsRepeatedKey(t *testing.T) {
	dup := pairs{Keys: []string{"dup", "dup"}, Vals: []float64{1, 1}}
	folder, folderAddr := startReduceCluster(t, MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, MaxAttempts: 1,
	}, 0)
	rogueWorker(t, folderAddr, "rogue", "127.0.0.1:1", func(m message) message {
		return message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Partial: dup}
	})
	if err := folder.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, err := folder.Run(context.Background(), "wordcount", testLines(t, 20), 2)
	if !errors.Is(err, errDuplicateKey) || got != nil || !strings.Contains(err.Error(), "shard ") {
		t.Fatalf("run over a repeated key = (%v, %v), want errDuplicateKey naming the shard", got, err)
	}

	const R = 2
	master, addr := startReduceCluster(t, MasterConfig{
		TaskTimeout: 5 * time.Second, JobTimeout: 30 * time.Second, Reducers: R, MaxAttempts: 1,
	}, 0)
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
			// Every partition claims the same key.
			return message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Partial: pairs{Keys: []string{"the"}, Vals: []float64{1}}}
		}
		parts := runShardPartitioned(wordCountJob(), m.Records, sc, R)
		if _, _, _, err := holder.store.put(m.Run, m.TaskID, parts, R); err != nil {
			return message{Type: "error", TaskID: m.TaskID, Message: err.Error()}
		}
		return message{Type: "mapdone", TaskID: m.TaskID, Attempt: m.Attempt, Run: m.Run, Parts: parts}
	})
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, err = master.Run(context.Background(), "wordcount", testLines(t, 20), 2)
	if !errors.Is(err, errDuplicateKey) || got != nil {
		t.Fatalf("union of reduce partitions sharing a key = (%v, %v), want errDuplicateKey", got, err)
	}
}

// TestTracedReduceChargesReplyDecode: on a traced distributed-reduce
// run, the master's decode of every winning launch's reply frame is a
// "decode" sub-span ending with the launch, next to the worker's own
// decode of the task frame — so Breakdown's Decode includes the rtask
// replies' decode instead of leaving it in the RPC gap, and the
// wall-clock identity still holds exactly.
func TestTracedReduceChargesReplyDecode(t *testing.T) {
	const R = 2
	master, _ := startReduceCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, Reducers: R, Trace: true,
	}, 2)
	lines := testLines(t, 400)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	if want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch())); !reflect.DeepEqual(got, want) {
		t.Fatal("traced reduce result diverged from reference")
	}
	trc := master.LastTrace()
	spans := trc.Spans()
	launches := map[int]TraceSpan{}
	for _, sp := range spans {
		if (sp.Phase == "task" || sp.Phase == "rtask") && sp.Outcome == outcomeOK {
			launches[sp.Launch] = sp
		}
	}
	var decodeSum, replyDecode float64
	rtasks := 0
	for id, launch := range launches {
		var decodes []TraceSpan
		for _, sp := range spans {
			if sp.Launch == id && sp.Phase == spanDecode {
				decodes = append(decodes, sp)
				decodeSum += sp.Duration()
			}
		}
		if len(decodes) != 2 {
			t.Fatalf("%s launch %d has %d decode sub-spans, want the task frame's and the reply's", launch.Phase, id, len(decodes))
		}
		last := decodes[0]
		if decodes[1].End > last.End {
			last = decodes[1]
		}
		if math.Abs(last.End-launch.End) > 1e-9 || last.Duration() <= 0 {
			t.Errorf("%s launch %d: reply decode %+v does not end the launch window %+v", launch.Phase, id, last, launch)
		}
		if launch.Phase == "rtask" {
			rtasks++
			replyDecode += last.Duration()
		}
	}
	if rtasks != R {
		t.Fatalf("winning rtask launches = %d, want %d", rtasks, R)
	}
	b := trc.Breakdown(stats)
	if math.Abs(b.Decode-decodeSum) > 1e-9 || b.Decode < replyDecode {
		t.Errorf("Decode = %g, want Σ decode sub-spans %g (rtask replies %g)", b.Decode, decodeSum, replyDecode)
	}
	if sum := b.MaxTask + b.MaxReduce + b.Ws + b.Wo; b.Wo > 0 && math.Abs(sum-b.TotalWall) > 1e-6 {
		t.Errorf("MaxTask+MaxReduce+Ws+Wo = %g, want TotalWall %g", sum, b.TotalWall)
	}
}
