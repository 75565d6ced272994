package netmr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Master-side scheduler of the distributed reduce phase: after the split
// barrier the R partitions go back out to the workers as reduce tasks,
// under the same retry/backoff/speculation discipline as map shards.
// The master never folds a key here — its remaining job is routing:
// telling each reducer where the winning map outputs live (the fetch
// plan) and carrying master-held copies inline.

// reducePlan is everything the reduce phase needs to route intermediate
// data: where the winning map outputs live (mapLocs), where their peer
// replicas live (replicaLocs), the master-held copies of outputs that
// have no peer replica (replicaParts: inline mapdone replicas and map
// re-executions), and the lineage inputs (job + shardRecords) for the
// last-ditch re-execution. The Run loop fills the maps as mapdones land;
// early and barrier dispatches both plan through route, on the Run
// loop's goroutine only.
type reducePlan struct {
	m            *Master
	stats        *Stats
	jobName      string
	job          Job
	runID        string
	mapLocs      map[int]string
	replicaLocs  map[int]string
	replicaParts map[int][]partitionPartial
	shardRecords func(int) []string

	// recoveryAt marks the first dispatch, early or not, that had to
	// route around a lost output; RecoveryWall runs from there to reduce
	// phase completion.
	recoveryAt time.Time
	scratch    *shardScratch // lazy, only allocated if lineage re-execution happens
}

// route computes one dispatch's fetch plan for partition over the map
// outputs stored so far. Each output goes to its live primary holder,
// else to its live replica (counted in ReplicaFetches), else travels
// inline from the master-held copy, else is re-executed from lineage on
// the master and cached where an inline copy would have been. locs lists
// each holder address with its sorted map tasks, reps the replica
// holders a reducer may fail over to worker-locally, and inline the
// partition's slice of every output that travels inline — an empty
// slice included, so an early reducer's coverage count can reach Total.
// An early dispatch passes reexec false: a plan that would need a
// re-execution is declined (ok false, nothing counted), since recovery
// before the barrier is not worth the re-run.
func (pl *reducePlan) route(partition int, reexec bool) (locs []fetchLoc, inline []partitionPartial, reps []fetchLoc, ok bool) {
	m := pl.m
	tasks := make([]int, 0, len(pl.mapLocs))
	for task := range pl.mapLocs {
		tasks = append(tasks, task)
	}
	sort.Ints(tasks)
	byAddr := make(map[string][]int)
	repBy := make(map[string][]int)
	rerouted, recovered := 0, false
	for _, task := range tasks {
		rep, hasRep := pl.replicaLocs[task]
		hasRep = hasRep && m.addrAlive(rep)
		if addr := pl.mapLocs[task]; m.addrAlive(addr) {
			byAddr[addr] = append(byAddr[addr], task)
			if hasRep {
				repBy[rep] = append(repBy[rep], task)
			}
			continue
		}
		recovered = true
		if hasRep {
			byAddr[rep] = append(byAddr[rep], task)
			rerouted++
			continue
		}
		parts, held := pl.replicaParts[task]
		if !held {
			if !reexec {
				return nil, nil, nil, false
			}
			if pl.scratch == nil {
				pl.scratch = newShardScratch()
			}
			parts = runShardPartitioned(pl.job, pl.shardRecords(task), pl.scratch, m.cfg.Reducers)
			pl.replicaParts[task] = parts
			m.metrics.mapReexecs.Inc()
		}
		var slice pairs
		for _, p := range parts {
			if p.ID == partition {
				slice = p.Partial
				break
			}
		}
		inline = append(inline, partitionPartial{ID: task, Partial: slice})
	}
	if rerouted > 0 {
		pl.stats.ReplicaFetches += rerouted
		m.metrics.replicaFetches.Add(float64(rerouted))
	}
	if recovered && pl.recoveryAt.IsZero() {
		pl.recoveryAt = time.Now()
	}
	return sortedLocs(byAddr), inline, sortedLocs(repBy), true
}

// sortedLocs lists a holder → map tasks grouping as fetch locations in
// address order.
func sortedLocs(by map[string][]int) []fetchLoc {
	addrs := make([]string, 0, len(by))
	for addr := range by {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	locs := make([]fetchLoc, 0, len(addrs))
	for _, addr := range addrs {
		locs = append(locs, fetchLoc{Addr: addr, Tasks: by[addr]})
	}
	return locs
}

// runReducePhase assigns the R reduce partitions to workers and returns
// their folded partitions, indexed by partition id.
//
// Unlike the map phase, fetch plans are computed per dispatch against the
// current shuffle-address liveness view (reducePlan.route): a map output
// whose primary holder died is rerouted to its peer replica, falls back
// to the master-held copy inline on the task frame, and only when every
// copy is gone is the map task re-executed from lineage on the master
// (cached, so R partitions pay for one re-execution). The fold output is
// byte-identical on every route — reducers order partials by map task id
// before folding, not by arrival.
//
// The report channels are created by Run before the map phase because
// pipelined (early) launches start under the map tail: partitions in
// earlySeeded are already in flight when this loop starts, so they are
// kept out of the queue and accounted as live launches — each reports
// exactly once, possibly into the pre-seeded channel buffers. An early
// launch the master aborted fails with errEarlyAborted and requeues
// without charging the attempt budget.
func (m *Master) runReducePhase(ctx context.Context, plan *reducePlan, ledger *perWorkerLedger, trc *JobTrace, deadline <-chan time.Time,
	resultCh chan launchDone, failCh chan launchFail, earlySeeded map[int]bool) ([]pairs, error) {
	R := m.cfg.Reducers
	stats := plan.stats

	queue := make([]shardTask, 0, R)
	for p := 0; p < R; p++ {
		if !earlySeeded[p] {
			queue = append(queue, shardTask{id: p})
		}
	}

	// dispatchReduce ships one partition to a reduce worker and reports
	// exactly once. A reply that is not this partition's result drops the
	// worker — except a reducer's "the fetch failed" report (an error
	// frame naming the holder address): there the reducer is healthy and
	// the holder is not, so the holder is marked dead, the reducer returns
	// to the pool, and the retry re-plans around the loss. Replica
	// addresses (Reps) let the reducer retry a dead holder's tasks against
	// the replica itself instead of failing the whole launch back here.
	dispatchReduce := func(w *workerHandle, t shardTask, locs []fetchLoc, parts []partitionPartial, reps []fetchLoc, launch int) {
		traceID := ""
		if trc != nil {
			traceID = trc.ID
		}
		fr := message{Type: "reducetask", Job: plan.jobName, TaskID: t.id, Attempt: t.attempts, Run: plan.runID, Locs: locs, Parts: parts, Reps: reps, Trace: traceID}
		start := time.Now()
		err := w.c.send(fr, m.cfg.TaskTimeout)
		var reply message
		if err == nil {
			reply, err = w.c.recv(m.cfg.TaskTimeout)
		}
		elapsed := time.Since(start)
		if err == nil && reply.Type == "error" && reply.TaskID == t.id && reply.Fetch != "" {
			m.markAddrDead(reply.Fetch)
			if trc != nil {
				trc.closeLaunch(launch, outcomeFailed, nil)
			}
			failCh <- launchFail{task: t, err: fmt.Errorf("netmr: reduce partition %d: fetch from %s failed: %s", t.id, reply.Fetch, reply.Message)}
			m.idle <- w
			return
		}
		if err == nil && (reply.Type != "result" || reply.TaskID != t.id) {
			detail := reply.Message
			if detail == "" {
				detail = fmt.Sprintf("frame %q (task %d)", reply.Type, reply.TaskID)
			}
			err = fmt.Errorf("netmr: worker %s failed reduce partition %d: %s", w.id, t.id, detail)
		}
		if err != nil {
			// Drop before reporting, so the phase loop's empty-pool check
			// sees the loss when it handles the failure.
			m.dropWorker(w)
			ledger.shardFailed(w.id, elapsed)
			m.metrics.reassignments.With(w.id).Inc()
			if trc != nil {
				trc.closeLaunch(launch, outcomeFailed, nil)
			}
			failCh <- launchFail{task: t, err: err}
			return
		}
		m.metrics.rpcSeconds.With(w.id).Observe(elapsed.Seconds())
		ledger.shardDone(w.id, elapsed)
		if trc != nil {
			trc.closeLaunch(launch, outcomeOK, withReplyDecode(reply.Spans, w.c.lastDecode))
		}
		resultCh <- launchDone{
			task: t, partial: reply.Partial, bytes: reply.Bytes,
			compBytes: reply.CompBytes, spills: reply.Spills, spilled: reply.Spilled,
			failovers: reply.Failovers, elapsed: elapsed, launch: launch,
		}
		m.idle <- w
	}

	finals := make([]pairs, R)
	inflight := make(map[int]*flight, R)
	done := make(map[int]bool, R)
	var completedLat []float64
	pending := R
	// Early launches are live flights this loop inherits; their ages are
	// reset to the phase start so the speculation clock does not read the
	// map overlap as straggling.
	for p := range earlySeeded {
		inflight[p] = &flight{launches: 1, lastLaunch: time.Now()}
	}

	liveLaunches := func() int {
		total := 0
		for _, f := range inflight {
			total += f.launches
		}
		return total
	}
	queuedShard := func(id int) bool {
		for _, t := range queue {
			if t.id == id {
				return true
			}
		}
		return false
	}
	abandon := func() {
		if n := liveLaunches(); n > 0 {
			stats.Cancellations += n
			m.metrics.cancellations.Add(float64(n))
		}
	}

	var specTick <-chan time.Time
	if m.cfg.SpeculationInterval > 0 {
		ticker := time.NewTicker(m.cfg.SpeculationInterval)
		defer ticker.Stop()
		specTick = ticker.C
	}
	wake := time.NewTimer(time.Hour)
	if !wake.Stop() {
		<-wake.C
	}
	defer wake.Stop()

	for pending > 0 {
		kept := queue[:0]
		for _, t := range queue {
			if !done[t.id] {
				kept = append(kept, t)
			}
		}
		queue = kept
		now := time.Now()
		readyIdx := -1
		var earliest time.Time
		for i, t := range queue {
			if !t.readyAt.After(now) {
				readyIdx = i
				break
			}
			if earliest.IsZero() || t.readyAt.Before(earliest) {
				earliest = t.readyAt
			}
		}
		var idleCh chan *workerHandle
		var wakeCh <-chan time.Time
		if readyIdx >= 0 {
			idleCh = m.idle
		} else if !earliest.IsZero() {
			if !wake.Stop() {
				select {
				case <-wake.C:
				default:
				}
			}
			wake.Reset(earliest.Sub(now))
			wakeCh = wake.C
		}

		select {
		case w := <-idleCh:
			t := queue[readyIdx]
			queue = append(queue[:readyIdx], queue[readyIdx+1:]...)
			f := inflight[t.id]
			if f == nil {
				f = &flight{}
				inflight[t.id] = f
			}
			f.launches++
			f.lastLaunch = time.Now()
			launch := -1
			if trc != nil {
				launch = trc.openLaunch("rtask", t.id, t.attempts, w.id)
			}
			// The routing plan is computed here, in the event loop, against
			// the liveness view of this instant — not in the dispatch
			// goroutine, where the shared replica cache and stats would
			// race.
			locs, inline, reps, _ := plan.route(t.id, true)
			go dispatchReduce(w, t, locs, inline, reps, launch)

		case r := <-resultCh:
			if f := inflight[r.task.id]; f != nil {
				f.launches--
			}
			if done[r.task.id] {
				stats.Duplicates++
				m.metrics.duplicates.Inc()
				if trc != nil && r.launch >= 0 {
					trc.relabel(r.launch, outcomeDuplicate)
				}
				continue
			}
			done[r.task.id] = true
			if r.task.speculative {
				stats.SpecWins++
				m.metrics.specWins.Inc()
			}
			completedLat = append(completedLat, r.elapsed.Seconds())
			finals[r.task.id] = r.partial
			stats.ReduceTasks++
			stats.ShuffleBytes += r.bytes
			if r.failovers > 0 {
				stats.Failovers += r.failovers
				m.metrics.failovers.Add(float64(r.failovers))
			}
			if r.compBytes > 0 {
				stats.CompressedBytes += r.compBytes
				m.metrics.compressedBytes.Add(float64(r.compBytes))
			}
			if r.spills > 0 {
				stats.SpillRuns += r.spills
				stats.SpilledBytes += r.spilled
				m.metrics.spillRuns.Add(float64(r.spills))
				m.metrics.spilledBytes.Add(float64(r.spilled))
			}
			m.metrics.reduceTasks.With("ok").Inc()
			pending--

		case fl := <-failCh:
			f := inflight[fl.task.id]
			if f != nil {
				f.launches--
			}
			if errors.Is(fl.err, errEarlyAborted) {
				// The master called this early launch back to free its
				// worker for a map retry — not a failure. Requeue at no
				// cost to the attempt budget.
				if !done[fl.task.id] && !queuedShard(fl.task.id) {
					queue = append(queue, fl.task)
				}
				continue
			}
			m.metrics.reduceTasks.With("failed").Inc()
			if done[fl.task.id] {
				continue // sibling already delivered; failure is moot
			}
			t := fl.task
			t.attempts++
			if t.attempts >= m.cfg.MaxAttempts {
				if (f != nil && f.launches > 0) || queuedShard(t.id) {
					continue
				}
				abandon()
				return nil, fmt.Errorf("netmr: reduce partition %d failed %d times, retry budget exhausted: %w", t.id, t.attempts, fl.err)
			}
			if m.WorkerCount() == 0 && (f == nil || f.launches == 0) {
				abandon()
				return nil, fmt.Errorf("netmr: all workers lost with partition %d outstanding: %w", t.id, fl.err)
			}
			delay := backoffDelay(m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay, m.cfg.RetryJitter, m.cfg.RetrySeed, t.id, t.attempts)
			m.metrics.retries.Inc()
			m.metrics.backoffSeconds.Observe(delay.Seconds())
			stats.Reassignments++
			t.readyAt = time.Now().Add(delay)
			queue = append(queue, t)

		case <-specTick:
			if len(completedLat) < m.cfg.SpeculationMinObservations {
				continue
			}
			threshold := latencyQuantile(completedLat, m.cfg.SpeculationQuantile) * m.cfg.SpeculationMultiplier
			now := time.Now()
			ids := make([]int, 0, len(inflight))
			for id := range inflight {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				f := inflight[id]
				if done[id] || f.launches == 0 || f.clones >= m.cfg.SpeculationMaxClones {
					continue
				}
				if now.Sub(f.lastLaunch).Seconds() < threshold {
					continue
				}
				f.clones++
				stats.Speculations++
				m.metrics.speculations.Inc()
				queue = append(queue, shardTask{id: id, speculative: true})
			}

		case <-wakeCh:
			// A backoff matured; rescan the queue.

		case <-ctx.Done():
			abandon()
			return nil, ctx.Err()

		case <-deadline:
			abandon()
			return nil, fmt.Errorf("netmr: job timed out after %v", m.cfg.JobTimeout)
		}
	}
	abandon()
	if !plan.recoveryAt.IsZero() {
		stats.RecoveryWall = time.Since(plan.recoveryAt)
		m.metrics.recoverySeconds.Observe(stats.RecoveryWall.Seconds())
	}
	return finals, nil
}
