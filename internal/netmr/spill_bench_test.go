package netmr

import (
	"fmt"
	"testing"
)

// spillBenchInputs builds one reduce partition's gathered inputs: tasks
// map-task partials over a shared key space with heavy prefix sharing —
// the shape real shuffle slices have.
func spillBenchInputs(tasks, keys int) []taskPartial {
	inputs := make([]taskPartial, tasks)
	for task := range inputs {
		m := pairs{Keys: make([]string, keys), Vals: make([]float64, keys)}
		for k := 0; k < keys; k++ {
			m.Keys[k] = fmt.Sprintf("shuffle-key-%05d", k)
			m.Vals[k] = float64(task + k)
		}
		inputs[task] = taskPartial{task: task, partial: m}
	}
	return inputs
}

// benchmarkShuffleFold drives the reduce-side gather+fold at one budget;
// 0 is the all-in-memory reference the spill path is gated against.
func benchmarkShuffleFold(b *testing.B, budget int64) {
	job := benchJob(true)
	inputs := spillBenchInputs(16, 4000)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newSpillFolder(budget, dir)
		for _, in := range inputs {
			if err := f.add(in.task, in.partial); err != nil {
				b.Fatal(err)
			}
		}
		out, merged, err := f.fold(job)
		if err != nil {
			b.Fatal(err)
		}
		if budget > 0 && budget < 1<<20 && !merged {
			b.Fatal("constrained budget never spilled")
		}
		if len(out.Keys) != 4000 {
			b.Fatalf("fold produced %d keys, want 4000", len(out.Keys))
		}
	}
}

// BenchmarkShuffleSpill quantifies the out-of-core tax: mem is the
// unconstrained fold, spill the same inputs forced through sorted runs
// and the loser-tree merge. CI gates the spill variant's regression.
func BenchmarkShuffleSpill(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchmarkShuffleFold(b, 0) })
	b.Run("spill", func(b *testing.B) { benchmarkShuffleFold(b, 64<<10) })
}
