package main

import "time"

// closedLoop is the load generator: one client submits a job, waits for
// its result, then submits the next, until d has elapsed and at least
// minJobs jobs have run. It counts every job in rep and returns the wall
// seconds of those that succeeded.
func closedLoop(d time.Duration, minJobs int, rep *report, job func(i int) (float64, error)) []float64 {
	var times []float64
	deadline := time.Now().Add(d)
	for i := 0; i < minJobs || time.Now().Before(deadline); i++ {
		secs, err := job(i)
		rep.attempted++
		if err != nil {
			rep.failed++
			if rep.failed <= 3 {
				rep.notef("job %d failed: %v", i, err)
			}
			continue
		}
		times = append(times, secs)
	}
	return times
}

// setLatency reports the end-to-end job figures of a closed loop.
func setLatency(rep *report, times []float64, inputBytes int) {
	rep.set("job_s_p50", median(times))
	v, pct, ok := tail(times)
	rep.set("job_s_tail", v)
	if ok {
		rep.notef("job_s_tail is p%.1f of %d jobs (10 slower)", pct, len(times))
	} else {
		rep.notef("job_s_tail is the slowest of only %d jobs", len(times))
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	rep.set("input_mb_s", mb(float64(inputBytes*len(times)))/total)
}
