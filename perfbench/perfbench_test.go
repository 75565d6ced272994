package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ipso/internal/netmr"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	v, pct, ok = tail(xs[:11]) // 100..90
	if !ok || v != 90 || math.Abs(pct-100.0/11) > 1e-12 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want the smallest, 90, at p%v", v, pct, ok, 100.0/11)
	}
	v, _, ok = tail([]float64{3, 1, 2})
	if ok || v != 3 {
		t.Fatalf("tail of 3 samples = %v (ok %v), want the maximum 3 and ok false", v, ok)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric names to the allowed
// alphabet and to the declarations in the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, group := range []struct {
		defs     []metricDef
		declared []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(group.defs) != len(group.declared) {
			t.Fatalf("program reports %d metrics, BENCHMARK.json declares %d", len(group.defs), len(group.declared))
		}
		for i, d := range group.defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is invalid or repeated", d.name)
			}
			seen[d.name] = true
			if got := group.declared[i]; got.Name != d.name || got.Unit != d.unit {
				t.Errorf("BENCHMARK.json declares %s [%s], program reports %s [%s]", got.Name, got.Unit, d.name, d.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestOracleRejectsOneChangedCount(t *testing.T) {
	lines := textInput(7, 300)
	for _, w := range []netmrWorkload{wordcount, bigram} {
		want := w.oracle(lines)
		// The job's own map function, folded single-threaded, must agree
		// with the independently written oracle.
		got := map[string]float64{}
		for _, l := range lines {
			w.job.Map(l, func(k string, v float64) { got[k] += v })
		}
		if err := checkOutput(got, want); err != nil {
			t.Fatalf("%s: map function disagrees with the oracle: %v", w.job.Name, err)
		}
		for k := range got {
			got[k]++
			break
		}
		if err := checkOutput(got, want); err == nil {
			t.Fatalf("%s: oracle accepted a result with one count changed", w.job.Name)
		}
	}
}

func TestCheckIdentityRejectsBrokenBreakdown(t *testing.T) {
	bd := netmr.PhaseBreakdown{MaxTask: 0.5, MaxReduce: 0.2, Ws: 0.1, Wo: 0.2, TotalWall: 1}
	if err := checkIdentity(bd); err != nil {
		t.Fatalf("exact breakdown rejected: %v", err)
	}
	bd.Wo += 1e-3
	if err := checkIdentity(bd); err == nil {
		t.Fatal("breakdown off by 1 ms accepted")
	}
}

// TestTracedWorkloadsExerciseTheirLayers runs each netmr workload's
// traced path for a few jobs. Every traced job's breakdown must satisfy
// the wall-clock identity (a violation fails the job), and each
// workload must reach the layer it exists for.
func TestTracedWorkloadsExerciseTheirLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real clusters")
	}
	for _, tc := range []struct {
		name string
		w    netmrWorkload
		want func(v map[string]float64) bool
		why  string
	}{
		{"wordcount", wordcount, func(v map[string]float64) bool { return v["netmr.shuffle.mb"] == 0 && v["netmr.spill.runs"] == 0 }, "no shuffle and no spill"},
		{"bigram", bigram, func(v map[string]float64) bool { return v["netmr.shuffle.mb"] > 0 && v["netmr.spill.runs"] == 0 }, "a shuffle and no spill"},
		{"bigram-spill", bigramSpill, func(v map[string]float64) bool { return v["netmr.shuffle.mb"] > 0 && v["netmr.spill.runs"] > 0 }, "a shuffle and spill runs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := runNetmr(tc.w, options{
				seed: 1, duration: time.Millisecond,
				scratch: t.TempDir(), spans: newSpanLog(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("%d of %d jobs failed: %v", rep.failed, rep.attempted, rep.notes)
			}
			if !tc.want(rep.values) {
				t.Fatalf("want %s; shuffle %v MB, %v spill runs", tc.why, rep.values["netmr.shuffle.mb"], rep.values["netmr.spill.runs"])
			}
		})
	}
}

// TestRunPrintsResultLine drives the command on zoo-fit, the cheapest
// workload, in both modes.
func TestRunPrintsResultLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "zoo-fit", "--seed", "3", "--seconds", "0.2", "--trace", trace, "--out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not a result: %v", trace, err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
			if _, err := os.Stat(filepath.Join(out, "spans-zoo-fit-seed3.jsonl")); err != nil {
				t.Fatalf("traced run wrote no spans: %v", err)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", trace, d.name, m.Unit)
			}
		}
		if trace == "0" {
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
