package netmr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ipso/internal/workload"
)

// benchFetchWorker boots one worker's shuffle plane — store filled with
// a run's map outputs, fetch listener serving — and returns what a
// reducer needs to gather one partition from it.
func benchFetchWorker(b *testing.B, tasks, keysPerTask, R int) (addr, run string, ids []int) {
	b.Helper()
	reg, err := NewRegistry(wordCountJob())
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorker(reg)
	if err != nil {
		b.Fatal(err)
	}
	run = "bench#1"
	for task := 0; task < tasks; task++ {
		parts := make([]partitionPartial, 0, R)
		for p := 0; p < R; p++ {
			m := pairs{Keys: make([]string, keysPerTask), Vals: make([]float64, keysPerTask)}
			for k := 0; k < keysPerTask; k++ {
				m.Keys[k] = fmt.Sprintf("fetch-key-%02d-%04d", p, k)
				m.Vals[k] = float64(task + k)
			}
			parts = append(parts, partitionPartial{ID: p, Partial: m})
		}
		if _, _, _, err := w.store.put(run, task, parts, R); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, task)
	}
	addr, err = w.startFetchListener()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if ln := w.fetchLn; ln != nil {
			_ = ln.Close()
		}
	})
	return addr, run, ids
}

// BenchmarkShuffleFetch quantifies what connection pooling buys on the
// shuffle plane: dial is the old path (TCP handshake per exchange),
// pooled the persistent-connection path. CI gates pooled against dial —
// the pooled variant must cost less per fetched partition and allocate
// less.
func BenchmarkShuffleFetch(b *testing.B) {
	const tasks, keys, R = 8, 200, 3
	b.Run("dial", func(b *testing.B) {
		addr, run, ids := benchFetchWorker(b, tasks, keys, R)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parts, _, _, err := fetchPartition(addr, run, i%R, ids, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if len(parts) != tasks {
				b.Fatalf("fetched %d parts, want %d", len(parts), tasks)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		addr, run, ids := benchFetchWorker(b, tasks, keys, R)
		p := newShufflePool(defaultShufflePoolPerPeer)
		b.Cleanup(p.closeAll)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parts, _, _, err := p.fetchPartition(addr, run, i%R, ids, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if len(parts) != tasks {
				b.Fatalf("fetched %d parts, want %d", len(parts), tasks)
			}
		}
	})
}

// benchmarkPipelineRun drives whole jobs through a local cluster with
// early shuffle on or off; the delta is the barrier cost the pipelined
// dispatch hides under the map tail.
func benchmarkPipelineRun(b *testing.B, early bool) {
	reg, err := NewRegistry(wordCountJob())
	if err != nil {
		b.Fatal(err)
	}
	master, err := NewMaster(reg, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second,
		Reducers: 3, EarlyShuffle: early,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(master.Close)
	for i := 0; i < 3; i++ {
		w, err := NewWorker(reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(3, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	lines, err := workload.TextLines(400, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := master.Run(context.Background(), "wordcount", lines, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkEarlyShuffle: barrier is the classic all-maps-then-reduce
// run, early the pipelined dispatch. CI gates early generously against
// barrier — it must never be a regression at this scale.
func BenchmarkEarlyShuffle(b *testing.B) {
	b.Run("barrier", func(b *testing.B) { benchmarkPipelineRun(b, false) })
	b.Run("early", func(b *testing.B) { benchmarkPipelineRun(b, true) })
}
