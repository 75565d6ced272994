package netmr

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"ipso/internal/runner"
)

// Worker-side half of the distributed reduce phase: a worker persists
// its partitioned map output keyed by (run, map task), serves it to peer
// reducers over fetch/fetchresult frames on a dedicated shuffle
// listener, and executes reduce tasks by pulling every map task's slice
// of its partition from those peers (or from master-held inline copies)
// and folding them — the OSDI'04 shape where reduce work scales with
// the cluster instead of living in the master process.
//
// The store is out-of-core: a configurable byte budget bounds how much
// intermediate output stays resident, whole partition sets spilling to
// per-run temp files (sorted by key, indexed by partition) when it is
// exceeded, and each persisted set is replicated to one peer so a worker
// lost after mapdone no longer loses its outputs.

// defaultShuffleTimeout bounds one fetch round-trip between workers
// unless WorkerConfig/MasterConfig override it.
const defaultShuffleTimeout = 30 * time.Second

// storedTask is one map task's partition set: in memory (parts) until
// the store's budget forces it to disk (spill), never both.
type storedTask struct {
	parts []partitionPartial
	bytes int64
	spill *spillFile
}

// interStore is a worker's intermediate store. It holds the partitioned
// map output of exactly one run at a time: a task stored under a new
// run id evicts everything from the previous run — including its spill
// files and its granted reducer count, so a stale count never validates
// fetches against an evicted run. The serve goroutine writes;
// shuffle-server goroutines read concurrently, hence the lock.
type interStore struct {
	mu       sync.Mutex
	run      string
	reducers int

	budget  int64  // resident-byte watermark; 0 = never spill
	baseDir string // spill scratch root; "" = os.TempDir()
	dir     string // current run's spill dir, created lazily

	mem  int64 // resident bytes of in-memory partition sets
	peak int64 // high-water resident bytes, measured after spilling

	totalSpills  int
	totalSpilled int64

	tasks map[int]*storedTask
}

func newInterStore() *interStore {
	return &interStore{tasks: map[int]*storedTask{}}
}

// configure sets the spill policy. Called before Start, so no lock
// contention matters; it takes the lock anyway for the race detector's
// peace of mind.
func (s *interStore) configure(budget int64, dir string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget, s.baseDir = budget, dir
}

// setReducers publishes the helloack's reduce partition count to
// the shuffle server goroutines (which validate fetch requests with it).
func (s *interStore) setReducers(r int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reducers = r
}

// put stores one map task's partitioned output under run — its own or a
// peer's it replicates — evicting any previous run's intermediates
// first. reducers is the partition count of the run (the spill section
// table is sized by it, and a run change adopts it so the evicted run's
// count cannot leak forward). When the byte budget is exceeded, whole
// partition sets spill to disk in ascending task order until the store
// fits again; spills/spilled report what this call flushed. A spill
// error leaves the set resident (correct, just over budget).
func (s *interStore) put(run string, task int, parts []partitionPartial, reducers int) (spills int, spilled, saved int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run != run {
		s.evictLocked()
		s.run = run
		s.reducers = reducers
	}
	if old, ok := s.tasks[task]; ok {
		// A speculation loser or a replica of output already held: replace.
		if old.spill != nil {
			old.spill.remove()
		} else {
			s.mem -= old.bytes
		}
	}
	st := &storedTask{parts: parts, bytes: partialMemBytes(parts)}
	s.tasks[task] = st
	s.mem += st.bytes
	if s.budget > 0 && s.mem > s.budget {
		spills, spilled, saved, err = s.spillLocked()
		s.totalSpills += spills
		s.totalSpilled += spilled
	}
	if s.mem > s.peak {
		s.peak = s.mem
	}
	return spills, spilled, saved, err
}

// spillLocked flushes resident partition sets in ascending task order
// until the store fits its budget again. spilled counts bytes that hit
// disk; saved is what section compression kept off it.
func (s *interStore) spillLocked() (int, int64, int64, error) {
	if s.dir == "" {
		dir, err := ensureSpillDir(s.baseDir, s.run)
		if err != nil {
			return 0, 0, 0, err
		}
		s.dir = dir
	}
	ids := make([]int, 0, len(s.tasks))
	for id, st := range s.tasks {
		if st.spill == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var spills int
	var spilled, saved int64
	for _, id := range ids {
		if s.mem <= s.budget {
			break
		}
		st := s.tasks[id]
		sf, n, sv, err := writeSpillFile(s.dir, id, st.parts, s.reducers)
		if err != nil {
			return spills, spilled, saved, err
		}
		st.spill = sf
		st.parts = nil
		s.mem -= st.bytes
		spills++
		spilled += n
		saved += sv
	}
	return spills, spilled, saved, nil
}

// evictLocked drops every held task, spill files and scratch dir
// included.
func (s *interStore) evictLocked() {
	for _, st := range s.tasks {
		if st.spill != nil {
			st.spill.remove()
		}
	}
	clear(s.tasks)
	s.mem = 0
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// evictAll is evictLocked for Worker.Stop: nothing survives, and the
// run id is cleared so late fetches are refused rather than answered
// from a torn-down store.
func (s *interStore) evictAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	s.run = ""
}

// stats reports the high-water resident bytes and cumulative spill
// volume — what the ooshuffle experiment asserts its budget against.
func (s *interStore) stats() (peak, spilled int64, runs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak, s.totalSpilled, s.totalSpills
}

// slice answers one fetch: partition's slice of every requested map
// task, as per-map-task partials (ID is the map task id; a task that
// emitted no keys into the partition contributes a nil Partial, which
// still acknowledges the task is held). Spilled tasks are read back
// from their section on disk. A mismatched run, an out-of-range
// partition or an unknown task id is a request the serving worker must
// refuse — not panic over — whatever a rogue or confused reducer sends.
func (s *interStore) slice(run string, partition int, tasks []int) ([]partitionPartial, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run == "" || run != s.run {
		return nil, fmt.Errorf("run %q is not held (current %q)", run, s.run)
	}
	if partition < 0 || partition >= s.reducers {
		return nil, fmt.Errorf("partition %d out of range [0,%d)", partition, s.reducers)
	}
	out := make([]partitionPartial, 0, len(tasks))
	for _, task := range tasks {
		st, ok := s.tasks[task]
		if !ok {
			return nil, fmt.Errorf("map output for task %d is not held", task)
		}
		var m map[string]float64
		if st.spill != nil {
			sec, err := st.spill.section(partition)
			if err != nil {
				return nil, err
			}
			m = sec
		} else {
			for _, p := range st.parts {
				if p.ID == partition {
					m = p.Partial
					break
				}
			}
		}
		out = append(out, partitionPartial{ID: task, Partial: m})
	}
	return out, nil
}

// startFetchListener binds the worker's shuffle listener (an ephemeral
// localhost port by default) and serves fetch requests until the
// listener closes. The returned address is what the worker advertises
// in its hello.
func (w *Worker) startFetchListener() (string, error) {
	ln, err := net.Listen("tcp", w.fetchListen)
	if err != nil {
		return "", fmt.Errorf("netmr: shuffle listen: %w", err)
	}
	w.mu.Lock()
	w.fetchLn = ln
	w.mu.Unlock()
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			w.mu.Lock()
			w.fetchConns[raw] = struct{}{}
			w.mu.Unlock()
			go w.serveFetch(raw)
		}
	}()
	return ln.Addr().String(), nil
}

// closeFetchPlane tears the shuffle plane down whole: the listener (no
// new peers) and every accepted socket (in-flight peers, including the
// pooled connections riding them). Stop and the mapper-loss chaos hooks
// use it — a worker whose listener merely closed would keep serving
// peers that connected earlier.
func (w *Worker) closeFetchPlane() {
	w.mu.Lock()
	ln := w.fetchLn
	conns := make([]net.Conn, 0, len(w.fetchConns))
	for c := range w.fetchConns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
}

// serveFetch handles one peer shuffle connection. Shuffle connections
// need no hello: every peer speaks the one frame layout. A bad request
// gets an error frame and the connection keeps serving — one rogue
// fetch must not take the worker's other partitions down with it.
func (w *Worker) serveFetch(raw net.Conn) {
	c := newConn(raw)
	defer func() {
		_ = c.close()
		w.mu.Lock()
		delete(w.fetchConns, raw)
		w.mu.Unlock()
	}()
	to := w.shuffleTO()
	for {
		m, err := c.recv(to)
		if err != nil {
			return // peer done (or garbage framing — either way, hang up)
		}
		switch m.Type {
		case "fetch":
			parts, err := w.store.slice(m.Run, m.TaskID, m.Tasks)
			if err != nil {
				workerServes.With("rejected").Inc()
				if c.send(message{Type: "error", TaskID: m.TaskID, Message: err.Error()}, to) != nil {
					return
				}
				continue
			}
			workerServes.With("ok").Inc()
			if c.send(message{Type: "fetchresult", TaskID: m.TaskID, Parts: parts}, to) != nil {
				return
			}
		case "replicate":
			if _, _, _, err := w.store.put(m.Run, m.TaskID, m.Parts, m.Reducers); err != nil {
				workerServes.With("rejected").Inc()
				if c.send(message{Type: "error", TaskID: m.TaskID, Message: err.Error()}, to) != nil {
					return
				}
				continue
			}
			workerReplicasStored.Inc()
			if c.send(message{Type: "replicack", TaskID: m.TaskID}, to) != nil {
				return
			}
		default:
			workerServes.With("rejected").Inc()
			if c.send(message{Type: "error", Message: fmt.Sprintf("unexpected frame %q on shuffle connection", m.Type)}, to) != nil {
				return
			}
		}
	}
}

// fetchExchange runs one fetch request/response over an established
// shuffle connection, returning the per-task partials, the encoded
// bytes transferred, and the wire bytes frame compression saved. A refusal (error frame from a healthy peer) comes
// back as a peerRefusal so the pool knows the connection survived it.
func fetchExchange(c *conn, addr, run string, partition int, tasks []int, timeout time.Duration) ([]partitionPartial, int64, int64, error) {
	if err := c.send(message{Type: "fetch", Run: run, TaskID: partition, Tasks: tasks}, timeout); err != nil {
		return nil, 0, 0, err
	}
	reply, err := c.recv(timeout)
	if err != nil {
		return nil, 0, 0, err
	}
	switch reply.Type {
	case "fetchresult":
		saved := max(int64(c.lastRawLen)-int64(c.lastFrameLen), 0)
		return reply.Parts, int64(c.lastFrameLen), saved, nil
	case "error":
		return nil, 0, 0, &peerRefusal{msg: fmt.Sprintf("netmr: fetch from %s refused: %s", addr, reply.Message)}
	default:
		return nil, 0, 0, fmt.Errorf("netmr: fetch from %s answered %q", addr, reply.Type)
	}
}

// replicateExchange runs one replicate request/response over an
// established shuffle connection.
func replicateExchange(c *conn, addr, run string, task int, parts []partitionPartial, reducers int, timeout time.Duration) error {
	if err := c.send(message{Type: "replicate", Run: run, TaskID: task, Parts: parts, Reducers: reducers}, timeout); err != nil {
		return err
	}
	reply, err := c.recv(timeout)
	if err != nil {
		return err
	}
	switch reply.Type {
	case "replicack":
		return nil
	case "error":
		return &peerRefusal{msg: fmt.Sprintf("netmr: replicate to %s refused: %s", addr, reply.Message)}
	default:
		return fmt.Errorf("netmr: replicate to %s answered %q", addr, reply.Type)
	}
}

// fetchPartition pulls partition's slice of the given map tasks from a
// peer's shuffle listener over a fresh dial-per-call connection. The
// pooled path (shufflePool.fetchPartition) has replaced it on the hot
// path; this remains as the unpooled baseline the shuffle benchmarks
// compare against.
func fetchPartition(addr, run string, partition int, tasks []int, timeout time.Duration) ([]partitionPartial, int64, int64, error) {
	c, err := dialShuffle(addr, timeout)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() { _ = c.close() }()
	return fetchExchange(c, addr, run, partition, tasks, timeout)
}

// replicateParts pushes one persisted partition set to a peer's shuffle
// listener over a fresh dial-per-call connection and waits for the
// replicack. Like fetchPartition, superseded by the pooled path.
func replicateParts(addr, run string, task int, parts []partitionPartial, reducers int, timeout time.Duration) error {
	c, err := dialShuffle(addr, timeout)
	if err != nil {
		return err
	}
	defer func() { _ = c.close() }()
	return replicateExchange(c, addr, run, task, parts, reducers, timeout)
}

// taskPartial pairs one map task id with its slice of the reduce
// partition being assembled.
type taskPartial struct {
	task    int
	partial map[string]float64
}

// fetchError names the peer whose fetch (or local read) failed, so the
// reduce error frame can carry the address for the master's recovery
// lineage.
type fetchError struct {
	addr string
	err  error
}

func (e *fetchError) Error() string { return e.err.Error() }
func (e *fetchError) Unwrap() error { return e.err }

// locResult is one location's gathered slice plus its transfer
// accounting — assembled concurrently by fetchRound, folded in location
// order by the caller.
type locResult struct {
	parts     []partitionPartial
	fetched   int64
	saved     int64
	failovers int
}

// fetchRound pulls partition's slice from every location concurrently,
// bounded by the worker's shuffle fan-out, with results in location
// order so the fold input is independent of arrival order. The worker's
// own store is read directly (no loopback dial); peer fetches go
// through the connection pool. A primary's failure fails over to the
// map tasks' replica holders when repOf names them; only when that too
// fails (or no replica covers a task) does the round error, naming the
// primary so the master routes recovery around it.
func (w *Worker) fetchRound(run string, partition int, locs []fetchLoc, repOf map[int]string, to time.Duration) ([]locResult, error) {
	ctx := runner.WithWorkers(context.Background(), w.shuffleFanout)
	return runner.Map(ctx, len(locs), func(_ context.Context, i int) (locResult, error) {
		loc := locs[i]
		if loc.Addr == w.fetchAddr {
			parts, err := w.store.slice(run, partition, loc.Tasks)
			if err != nil {
				return locResult{}, &fetchError{addr: loc.Addr, err: err}
			}
			return locResult{parts: parts}, nil
		}
		fetchStart := time.Now()
		parts, n, sv, err := w.pool.fetchPartition(loc.Addr, run, partition, loc.Tasks, to)
		workerFetchSeconds.Observe(time.Since(fetchStart).Seconds())
		if err == nil {
			workerFetches.With("ok").Inc()
			return locResult{parts: parts, fetched: n, saved: sv}, nil
		}
		workerFetches.With("failed").Inc()
		res, ferr := w.fetchFailover(run, partition, loc, repOf, to)
		if ferr != nil {
			return locResult{}, &fetchError{addr: loc.Addr, err: err}
		}
		return res, nil
	})
}

// fetchFailover re-pulls one failed location's map tasks from their
// replica holders. Every task must have a known replica distinct from
// the failed primary and every replica fetch must succeed — a partial
// recovery is no recovery, so the primary's failure stands otherwise.
func (w *Worker) fetchFailover(run string, partition int, loc fetchLoc, repOf map[int]string, to time.Duration) (locResult, error) {
	if len(repOf) == 0 {
		return locResult{}, fmt.Errorf("netmr: no replica locations known")
	}
	groups := map[string][]int{}
	var order []string
	for _, task := range loc.Tasks {
		rep, ok := repOf[task]
		if !ok || rep == loc.Addr {
			return locResult{}, fmt.Errorf("netmr: no replica holds map task %d", task)
		}
		if _, seen := groups[rep]; !seen {
			order = append(order, rep)
		}
		groups[rep] = append(groups[rep], task)
	}
	var out locResult
	for _, rep := range order {
		fetchStart := time.Now()
		parts, n, sv, err := w.pool.fetchPartition(rep, run, partition, groups[rep], to)
		workerFetchSeconds.Observe(time.Since(fetchStart).Seconds())
		if err != nil {
			workerFetches.With("failed").Inc()
			return locResult{}, err
		}
		workerFetches.With("ok").Inc()
		out.parts = append(out.parts, parts...)
		out.fetched += n
		out.saved += sv
		out.failovers++
	}
	workerFailovers.Add(float64(out.failovers))
	return out, nil
}

// runReduceTask executes one reduce task: gather the partition's slice
// of every map task — master-held inline partials plus peer fetches
// (the worker's own store is read directly, no loopback dial) — fold
// them in ascending map-task order, and answer with a flat result frame
// carrying the partition's final key space and the intermediate bytes
// fetched. Fetches run concurrently up to the shuffle fan-out over
// pooled connections, and fetch failures fail over to replica holders
// locally when the task frame named them (Reps). Under a spill budget the
// gathered partials buffer through a spillFolder whose sorted runs
// merge back via loser tree, keeping the output byte-identical to the
// in-memory fold. On an early dispatch (Total > 0) the initial
// locations are only a prefix: the worker keeps receiving morelocs
// frames — gathering each batch as it lands, under the map tail — until
// every announced map output is covered or the master aborts the
// launch. A gather failure is answered with an error frame naming the
// peer that failed (Fetch), so the master can consult replica locations
// instead of evicting the healthy reducer.
func (w *Worker) runReduceTask(c *conn, m message, decode time.Duration) bool {
	to := w.shuffleTO()
	job, ok := w.registry.lookup(m.Job)
	if !ok {
		workerTasks.With("unknown_job").Inc()
		_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: fmt.Sprintf("unknown job %q", m.Job)}, to)
		return true
	}
	if f := w.chaos.TaskFault("reduce", m.TaskID, m.Attempt); f.Delay > 0 || f.Crash {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Crash {
			workerTasks.With("crashed").Inc()
			return false
		}
	}
	var clock *spanClock
	var t time.Time
	if m.Trace != "" {
		clock, t = newSpanClock(decode)
	}
	start := time.Now()
	var folder *spillFolder
	if w.spillBudget > 0 {
		if dir, err := ensureSpillDir(w.spillDir, m.Run); err == nil {
			folder = newSpillFolder(w.spillBudget, dir)
			defer folder.discard()
		}
	}
	var inputs []taskPartial
	covered := 0
	gather := func(task int, partial map[string]float64) error {
		covered++
		if folder != nil {
			return folder.add(task, partial)
		}
		inputs = append(inputs, taskPartial{task: task, partial: partial})
		return nil
	}
	repOf := map[int]string{}
	noteReps := func(reps []fetchLoc) {
		for _, rep := range reps {
			for _, task := range rep.Tasks {
				repOf[task] = rep.Addr
			}
		}
	}
	noteReps(m.Reps)
	var fetched, compSaved int64
	var failovers int
	// round gathers one batch of map outputs: the master-held inline
	// partials (unreplicated outputs or recovered map re-executions; ID
	// is the map task id there, not a partition index), then the fetch
	// locations, concurrently.
	round := func(parts []partitionPartial, locs []fetchLoc) (string, error) {
		for _, p := range parts {
			if err := gather(p.ID, p.Partial); err != nil {
				return "", err
			}
		}
		results, err := w.fetchRound(m.Run, m.TaskID, locs, repOf, to)
		if err != nil {
			var fe *fetchError
			if errors.As(err, &fe) {
				return fe.addr, err
			}
			return "", err
		}
		for _, r := range results {
			fetched += r.fetched
			compSaved += r.saved
			failovers += r.failovers
			for _, p := range r.parts {
				if err := gather(p.ID, p.Partial); err != nil {
					return "", err
				}
			}
		}
		return "", nil
	}
	failedAddr, gatherErr := round(m.Parts, m.Locs)
	if clock != nil {
		t = clock.mark(spanFetch, t)
	}
	// Early dispatch: the master announced how many map outputs the run
	// will produce and streams the still-missing locations as their
	// mapdones land. The blocked recv is the await span — together with
	// the per-round fetch spans, the overlap the trace assembler shows
	// hiding under the map tail.
	for gatherErr == nil && m.Total > 0 && covered < m.Total {
		um, err := c.recv(0)
		if err != nil {
			return false
		}
		if clock != nil {
			t = clock.mark(spanAwait, t)
		}
		if um.Type != "morelocs" || um.Run != m.Run {
			gatherErr = fmt.Errorf("expected morelocs for run %s, got %q", m.Run, um.Type)
			break
		}
		if um.Message == "abort" {
			// The master wants this worker back (a map shard needs
			// retrying); acknowledge and re-enter the serve loop.
			workerTasks.With("aborted").Inc()
			_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: "early reduce aborted"}, to)
			return true
		}
		noteReps(um.Reps)
		failedAddr, gatherErr = round(um.Parts, um.Locs)
		if clock != nil {
			t = clock.mark(spanFetch, t)
		}
	}
	if gatherErr != nil {
		workerTasks.With("fetch_failed").Inc()
		_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: gatherErr.Error(), Fetch: failedAddr}, to)
		return true
	}
	workerShuffleBytes.Add(float64(fetched))
	var out map[string]float64
	merged := false
	if folder != nil {
		var foldErr error
		out, merged, foldErr = folder.fold(job)
		if foldErr != nil {
			workerTasks.With("fold_failed").Inc()
			_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: foldErr.Error()}, to)
			return true
		}
	} else {
		// Deterministic fold order: ascending map task id, whatever order
		// the inline partials and fetches arrived in.
		sort.Slice(inputs, func(i, j int) bool { return inputs[i].task < inputs[j].task })
		out = foldTaskPartials(job, inputs)
	}
	if clock != nil {
		if merged {
			t = clock.mark(spanMergeRuns, t)
		} else {
			t = clock.mark(spanReduce, t)
		}
	}
	workerReduceSeconds.Observe(time.Since(start).Seconds())
	workerTasks.With("ok").Inc()
	var spans []spanSummary
	if clock != nil {
		clock.mark(spanEncode, t)
		if folder != nil && folder.flushDur > 0 {
			clock.spans = appendSpanAfter(clock.spans, spanSpill, folder.flushDur)
		}
		spans = clock.spans
	}
	res := message{Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Partial: out, Bytes: fetched,
		CompBytes: compSaved, Failovers: failovers, Trace: m.Trace, Spans: spans}
	if folder != nil {
		res.CompBytes += folder.compSaved
		res.Spills = folder.spillRuns
		res.Spilled = folder.spilledBytes
		workerSpillRuns.Add(float64(folder.spillRuns))
		workerSpilledBytes.Add(float64(folder.spilledBytes))
	}
	return c.send(res, to) == nil
}

// foldTaskPartials merges per-map-task partials of one partition into
// its final key space: a streaming fold for jobs with a Combine, a
// group-then-Reduce for the rest — the same semantics as the master's
// serialMerge, executed worker-side.
func foldTaskPartials(job Job, inputs []taskPartial) map[string]float64 {
	size := 0
	for _, in := range inputs {
		if len(in.partial) > size {
			size = len(in.partial)
		}
	}
	if job.Combine != nil {
		out := make(map[string]float64, size)
		for _, in := range inputs {
			for k, v := range in.partial {
				if acc, ok := out[k]; ok {
					out[k] = job.Combine(acc, v)
				} else {
					out[k] = v
				}
			}
		}
		return out
	}
	merged := make(map[string]*[]float64, size)
	for _, in := range inputs {
		for k, v := range in.partial {
			vs, ok := merged[k]
			if !ok {
				vs = valuesPool.Get().(*[]float64)
				*vs = (*vs)[:0]
				merged[k] = vs
			}
			*vs = append(*vs, v)
		}
	}
	out := make(map[string]float64, len(merged))
	for k, vs := range merged {
		out[k] = job.Reduce(k, *vs)
		valuesPool.Put(vs)
	}
	return out
}
