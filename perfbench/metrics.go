package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. Owner names the subsystem
// whose workloads measure it ("netmr" or "core"); a metric whose owner
// is idle on a workload reads 0 there. An empty owner means every
// workload measures it.
type metricDef struct {
	name, unit, owner string
}

// endToEnd are the metrics a run with tracing off reports: what a user
// submitting jobs sees. failed_ratio is not among them because it is 0
// on healthy code; the result line carries it as failed ÷ attempted.
var endToEnd = []metricDef{
	{"job_s_p50", "s", ""},
	{"job_s_tail", "s", ""},
	{"input_mb_s", "MB/s", ""},
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
}

// perLayer are the metrics a traced run reports, per job and as the
// median over the traced jobs unless the name says otherwise. The
// netmr rows come from the runtime's JobTrace.Breakdown and Stats; the
// core rows from the benchmark's own spans around the public calls.
var perLayer = []metricDef{
	{"failed_ratio", "ratio", ""},
	{"netmr.worker.map_s", "s", "netmr"},
	{"netmr.worker.max_task_s", "s", "netmr"},
	{"netmr.codec.decode_s", "s", "netmr"},
	{"netmr.codec.encode_s", "s", "netmr"},
	{"netmr.codec.lz_saved_mb", "MB", "netmr"},
	{"netmr.worker.partition_s", "s", "netmr"},
	{"netmr.master.rpc_gap_s", "s", "netmr"},
	{"netmr.master.wo_s", "s", "netmr"},
	{"netmr.master.wasted_s", "s", "netmr"},
	{"netmr.master.launch_yield", "ratio", "netmr"},
	{"netmr.merge.ws_s", "s", "netmr"},
	{"netmr.q", "ratio", "netmr"},
	{"netmr.shuffle.replicate_s", "s", "netmr"},
	{"netmr.shuffle.fetch_s", "s", "netmr"},
	{"netmr.shuffle.mb", "MB", "netmr"},
	{"netmr.reduce.fold_s", "s", "netmr"},
	{"netmr.reduce.max_fold_s", "s", "netmr"},
	{"netmr.spill.write_s", "s", "netmr"},
	{"netmr.spill.runs", "count", "netmr"},
	{"netmr.spill.mb", "MB", "netmr"},
	{"netmr.spill.store_peak_mb", "MB", "netmr"},
	{"netmr.allocs_per_job", "count", "netmr"},
	{"netmr.alloc_mb_per_job", "MB", "netmr"},
	{"netmr.trace_overhead", "ratio", "netmr"},
	{"core.diagnose.shape_s", "s", "core"},
	{"core.zoo.fit_s", "s", "core"},
	{"core.zoo.model_fit_s.ipso", "s", "core"},
	{"core.zoo.model_fit_s.usl", "s", "core"},
	{"core.zoo.model_fit_s.amdahl", "s", "core"},
	{"core.zoo.model_fit_s.gustafson", "s", "core"},
	{"core.zoo.model_fit_s.power", "s", "core"},
	{"core.zoo.loo_s", "s", "core"},
	{"core.zoo.iters", "count", "core"},
	{"core.zoo.converged_ratio", "ratio", "core"},
	{"core.allocs_per_job", "count", "core"},
	{"core.alloc_mb_per_job", "MB", "core"},
	{"model_recovered_ratio", "ratio", "core"},
}

// mb converts bytes to the decimal megabytes every MB metric uses.
func mb(bytes float64) float64 { return bytes / 1e6 }

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it — the eleventh-largest value — together with that
// percentile, 100·(n−10)/n. Below eleven samples no percentile has ten
// beyond it; the maximum is returned with ok false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	if n < 11 {
		return s[n-1], 100, false
	}
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	values            map[string]float64
	// notes are human-readable lines printed ahead of the result line.
	notes []string
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the result line from a report: every declared metric
// the workload's subsystem owns must have been measured, and the rest
// read 0 because their layer is idle on this workload.
func collect(rep report, defs []metricDef, owner string) (result, error) {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && (d.owner == "" || d.owner == owner) {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}
