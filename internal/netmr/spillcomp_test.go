package netmr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSpillFileCompressionRoundTrip: map-side spill sections at or above
// the wire compression threshold are stored LZ-compressed when that
// shrinks them; every section — compressed, raw-because-small, raw-
// because-incompressible, absent — must read back exactly.
func TestSpillFileCompressionRoundTrip(t *testing.T) {
	const R = 4
	rng := rand.New(rand.NewSource(7))
	compressible := map[string]float64{}
	for i := 0; i < 600; i++ {
		compressible[fmt.Sprintf("shared-prefix-key-%05d", i)] = float64(i % 5)
	}
	incompressible := map[string]float64{}
	for i := 0; i < 600; i++ {
		k := make([]byte, 24)
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		incompressible[string(k)] = rng.Float64()
	}
	tiny := map[string]float64{"a": 1, "b": 2}
	parts := []partitionPartial{
		{ID: 0, Partial: pairsOf(compressible)},
		{ID: 1, Partial: pairsOf(incompressible)},
		{ID: 2, Partial: pairsOf(tiny)},
		// partition 3 absent: the task emitted nothing into it
	}
	sf, onDisk, saved, err := writeSpillFile(t.TempDir(), 0, parts, R)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.remove()
	if saved == 0 {
		t.Error("compressible section saved no bytes")
	}
	if sf.rawLens[0] == 0 {
		t.Error("compressible section not stored compressed")
	}
	if sf.rawLens[2] != 0 {
		t.Error("tiny section paid the compressor below the threshold")
	}
	if onDisk <= 0 {
		t.Fatalf("on-disk size = %d", onDisk)
	}
	// SpilledBytes accounting is post-compression: the on-disk size plus
	// the saved bytes must equal what the sections serialize to raw.
	var raw int64
	for p := 0; p < R; p++ {
		if sf.offsets[p] < 0 {
			continue
		}
		if sf.rawLens[p] > 0 {
			raw += sf.rawLens[p]
		} else {
			raw += sf.lengths[p]
		}
	}
	if onDisk+saved != raw {
		t.Errorf("onDisk %d + saved %d != raw %d", onDisk, saved, raw)
	}
	for _, want := range parts {
		got, err := sf.section(want.ID)
		if err != nil {
			t.Fatalf("section %d: %v", want.ID, err)
		}
		if !reflect.DeepEqual(got, want.Partial) {
			t.Fatalf("section %d round trip diverged", want.ID)
		}
	}
	if got, err := sf.section(3); err != nil || !reflect.DeepEqual(got, pairs{}) {
		t.Fatalf("absent section = (%v, %v), want (empty, nil)", got, err)
	}
}

// TestSpillFolderCompressedRunsMatchMemory: the reduce-side gather
// buffer's block-framed compressed runs must fold to exactly the
// in-memory result, and highly redundant runs must record savings.
func TestSpillFolderCompressedRunsMatchMemory(t *testing.T) {
	job := wordCountJob()
	inputs := make([]taskPartial, 8)
	for task := range inputs {
		m := map[string]float64{}
		for i := 0; i < 400; i++ {
			m[fmt.Sprintf("gather-key-%04d", i)] = float64(task + i%3)
		}
		inputs[task] = taskPartial{task: task, partial: pairsOf(m)}
	}
	ref := make([]taskPartial, len(inputs))
	copy(ref, inputs)
	sort.Slice(ref, func(i, j int) bool { return ref[i].task < ref[j].task })
	want, err := foldTaskPartials(job, ref)
	if err != nil {
		t.Fatal(err)
	}

	f := newSpillFolder(1024, t.TempDir()) // tight budget: every add spills
	for _, in := range inputs {
		if err := f.add(in.task, in.partial); err != nil {
			t.Fatal(err)
		}
	}
	got, merged, err := f.fold(job)
	if err != nil {
		t.Fatal(err)
	}
	if !merged {
		t.Fatal("tight budget never forced a merged fold")
	}
	if !reflect.DeepEqual(mapOf(t, got), mapOf(t, want)) {
		t.Fatal("compressed-run fold diverged from the in-memory reference")
	}
	if f.compSaved == 0 {
		t.Error("redundant runs recorded no compression savings")
	}
	if f.spilledBytes == 0 || f.spillRuns == 0 {
		t.Errorf("spill accounting empty: runs=%d bytes=%d", f.spillRuns, f.spilledBytes)
	}
}
