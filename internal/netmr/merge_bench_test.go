package netmr

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ipso/internal/workload"
)

func benchLines(n int) ([]string, error) {
	return workload.TextLines(n, 8, 42)
}

// The merge benchmarks quantify the tentpole claim: hash-partitioned,
// map-overlapped merging shrinks the master's serial merge portion —
// the runtime's Ws(n). Run them with -cpu 1,4 to see the width effect:
// at one core the engine and the serial fold are equivalent work, at
// four the engine's partitions fold and finalize concurrently.

// mergeBenchPartials builds shards dense synthetic worker partials over
// keys distinct keys — every shard carries every key, the worst case
// for the master-side merge (maximum fold work per key).
func mergeBenchPartials(shards, keys int) []pairs {
	partials := make([]pairs, shards)
	for s := range partials {
		p := pairs{Keys: make([]string, keys), Vals: make([]float64, keys)}
		for k := 0; k < keys; k++ {
			p.Keys[k] = fmt.Sprintf("key-%05d", k)
			p.Vals[k] = float64(s + k)
		}
		partials[s] = p
	}
	return partials
}

func benchJob(combine bool) Job {
	j := wordCountJob()
	if combine {
		j.Combine = func(acc, v float64) float64 { return acc + v }
	}
	return j
}

func benchmarkSerialMerge(b *testing.B, combine bool) {
	job := benchJob(combine)
	partials := mergeBenchPartials(16, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serialMerge(job, partials); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkEngineMerge(b *testing.B, combine bool) {
	job := benchJob(combine)
	partials := mergeBenchPartials(16, 20000)
	parts := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := newMergeEngine(job, parts, len(partials))
		for _, p := range partials {
			eng.feed(nil, p)
		}
		if _, err := eng.finalize(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// presplit re-arranges a flat partial into per-partition partials the
// way a worker ships them — done outside the benchmark timer so the
// engine benchmark below measures pure fold parallelism, the steady
// state of a partitioned cluster.
func presplit(p pairs, parts int) []partitionPartial {
	split := make([]pairs, parts)
	for i, k := range p.Keys {
		idx := partitionIndex(k, parts)
		split[idx].Keys = append(split[idx].Keys, k)
		split[idx].Vals = append(split[idx].Vals, p.Vals[i])
	}
	out := make([]partitionPartial, 0, parts)
	for id, sp := range split {
		if len(sp.Keys) > 0 {
			out = append(out, partitionPartial{ID: id, Partial: sp})
		}
	}
	return out
}

func benchmarkEngineMergePresplit(b *testing.B, combine bool) {
	job := benchJob(combine)
	partials := mergeBenchPartials(16, 20000)
	parts := runtime.GOMAXPROCS(0)
	shipped := make([][]partitionPartial, len(partials))
	for i, p := range partials {
		shipped[i] = presplit(p, parts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := newMergeEngine(job, parts, len(shipped))
		for _, parts := range shipped {
			eng.feed(parts, pairs{})
		}
		if _, err := eng.finalize(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialMergeReduce(b *testing.B)     { benchmarkSerialMerge(b, false) }
func BenchmarkEngineMergeReduce(b *testing.B)     { benchmarkEngineMerge(b, false) }
func BenchmarkEngineMergePresplit(b *testing.B)   { benchmarkEngineMergePresplit(b, false) }
func BenchmarkSerialMergeCombine(b *testing.B)    { benchmarkSerialMerge(b, true) }
func BenchmarkEngineMergeCombine(b *testing.B)    { benchmarkEngineMerge(b, true) }
func BenchmarkEnginePresplitCombine(b *testing.B) { benchmarkEngineMergePresplit(b, true) }

// benchmarkClusterMerge runs whole jobs over a loopback cluster and
// reports the merge's critical-path tail (MergeWall - MergeOverlapWall)
// — the serial work left beyond the split barrier, the quantity the
// partitioned overlap is built to shrink.
func benchmarkClusterMerge(b *testing.B, cfg MasterConfig) {
	cfg.TaskTimeout = 30 * time.Second
	cfg.JobTimeout = 2 * time.Minute
	registry, err := NewRegistry(wordCountJob())
	if err != nil {
		b.Fatal(err)
	}
	master, err := NewMaster(registry, cfg)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer master.Close()
	const workers = 4
	for i := 0; i < workers; i++ {
		reg, err := NewRegistry(wordCountJob())
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorker(reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			b.Fatal(err)
		}
		defer w.Stop()
	}
	if err := master.WaitForWorkers(workers, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	lines, err := benchLines(8000)
	if err != nil {
		b.Fatal(err)
	}
	var tail time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := master.Run(context.Background(), "wordcount", lines, 16)
		if err != nil {
			b.Fatal(err)
		}
		tail += stats.MergeWall - stats.MergeOverlapWall
	}
	b.StopTimer()
	b.ReportMetric(float64(tail.Milliseconds())/float64(b.N), "merge-tail-ms/op")
}

func BenchmarkClusterMergeSerial(b *testing.B) {
	benchmarkClusterMerge(b, MasterConfig{SerialMerge: true})
}

func BenchmarkClusterMergePartitioned(b *testing.B) {
	benchmarkClusterMerge(b, MasterConfig{})
}
