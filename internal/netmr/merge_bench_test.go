package netmr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ipso/internal/workload"
)

func benchLines(n int) ([]string, error) {
	return workload.TextLines(n, 8, 42)
}

// The merge benchmarks measure the master's fold: serialMerge folds a
// fixed set of worker partials through one keyFold (the oracle the
// runtime's output is checked against), and the cluster benchmark runs
// whole jobs whose master folds each result as it arrives, reporting
// the merge tail left after the split barrier — the runtime's Ws(n).

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

func BenchmarkSerialMergeReduce(b *testing.B)  { benchmarkSerialMerge(b, false) }
func BenchmarkSerialMergeCombine(b *testing.B) { benchmarkSerialMerge(b, true) }

// BenchmarkClusterMergeSerial runs whole jobs over a loopback cluster
// and reports the merge's critical-path tail (MergeWall) — the serial
// work the master's one fold leaves beyond the split barrier.
func BenchmarkClusterMergeSerial(b *testing.B) {
	cfg := MasterConfig{TaskTimeout: 30 * time.Second, JobTimeout: 2 * time.Minute}
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
		tail += stats.MergeWall
	}
	b.StopTimer()
	b.ReportMetric(tail.Seconds()*1e3/float64(b.N), "merge-tail-ms/op")
}
