// Package netmr is a real, network-distributed Split-Merge MapReduce
// runtime: a master listens on TCP, workers connect, the master scatters
// input shards to the workers (the split phase, with barrier
// synchronization), and merges their partial results serially (the merge
// phase) — the execution structure of Fig. 1 running over genuine
// sockets rather than the simulator.
//
// It exists so the library is a usable distributed system and so the
// IPSO phase decomposition (Wp from the parallel map wave, Ws from the
// serial merge, Wo from dispatch) can be measured on real wall clocks.
// Values are restricted to string→float64 pairs so results serialize
// uniformly; that covers counting, summing and histogram workloads.
//
// The master tolerates worker failure: a shard whose worker dies or
// times out is reassigned to another live worker (up to a retry budget),
// the same recovery model as Hadoop's task re-execution.
//
// Master, workers and the worker-to-worker shuffle plane speak one wire
// protocol from the first byte: the length-prefixed binary frames of
// codec.go, every frame in one fixed layout. The worker's hello carries
// protocolVersion and its shuffle listener address; a master speaking
// another version answers with an error frame naming both versions and
// hangs up, so a mismatched worker fails fast with a reason instead of
// misparsing frames. The helloack carries the cluster settings the
// worker adopts (merge partitions, reduce partitions, shuffle timeout).
// Everything else is decided per frame by its contents: a task frame
// with a trace ID is traced, one with a run ID persists its output for
// the distributed reduce.
package netmr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// protocolVersion is the wire protocol this build speaks. Any change to
// the frame layout bumps it; the hello check then refuses peers of the
// other version by name.
const protocolVersion = 3

// message is the single wire frame. Every field travels on every frame
// (codec.go); unused ones cost a zero byte or two.
type message struct {
	Type       string             // hello | helloack | task | taskbatch | result | presult | error | ping | pong | reducetask | fetch | fetchresult | mapdone | replicate | replicack | morelocs
	ID         string             // hello: worker identity
	Job        string             // task
	TaskID     int                // task | result | presult | error; reducetask | fetch: reduce partition
	Attempt    int                // task | result | presult: retry ordinal, 0-based
	Records    []string           // task
	Partial    map[string]float64 // result
	Jobs       []string           // hello
	Message    string             // error
	Version    int                // hello: the worker's protocolVersion
	Batch      []taskSpec         // taskbatch
	Partitions int                // helloack: merge partition count (>1: ship results pre-split)
	Parts      []partitionPartial // presult: per-partition partials; reducetask | fetchresult: per-map-task partials (ID is the map task id)
	Trace      string             // task | taskbatch: job trace ID (non-empty: trace this task); result | presult: echoed back
	Spans      []spanSummary      // result | presult: worker-side phase spans

	// Distributed-reduce fields.
	Run      string     // task | mapdone | reducetask | fetch: run id intermediate output is keyed by
	Reducers int        // helloack: reduce partition count (0: the master folds)
	Fetch    string     // hello: worker's shuffle listener address; error (of a reduce task): the peer whose fetch failed
	Bytes    int64      // result (of a reduce task): intermediate bytes fetched
	Tasks    []int      // fetch: map task ids whose partition slice is wanted
	Locs     []fetchLoc // reducetask: where winning map outputs are stored

	// Out-of-core shuffle fields.
	Rep       string // task | taskbatch: peer shuffle addr to replicate to; mapdone: addr actually replicated to
	Spills    int    // mapdone | result: spill runs written while producing this output
	Spilled   int64  // mapdone | result: bytes written to spill files
	CompBytes int64  // result (of a reduce task): wire bytes saved by frame compression
	ShuffleMs int64  // helloack: shuffle timeout, milliseconds

	// Pipelined-shuffle fields. Total > 0 on a reducetask marks it an
	// early dispatch: the reducer gathers the initial Locs/Parts, then
	// keeps receiving morelocs frames (same Run/TaskID, incremental Locs/
	// Parts/Reps — or Message "abort") until it has covered Total map
	// tasks.
	Total     int        // reducetask: map tasks the run will eventually produce (early mode)
	Reps      []fetchLoc // reducetask | morelocs: replica shuffle addrs per map task (local failover)
	Failovers int        // result (of a reduce task): fetches locally rerouted to a replica
}

// fetchLoc names one worker's shuffle listener and the map tasks whose
// persisted output it holds — the reduce task's treasure map.
type fetchLoc struct {
	Addr  string
	Tasks []int
}

// spanSummary is one worker-side phase interval shipped back piggybacked
// on a result frame: the phase name and its [Start, End) window in
// seconds relative to the moment the worker received the task. The
// master re-bases these onto its own clock when assembling the job
// timeline, so workers need no synchronized clocks — only a monotonic
// one.
type spanSummary struct {
	Phase string
	Start float64
	End   float64
}

// partitionPartial is one merge partition's slice of a shard result: the
// keys whose hash lands in partition ID, pre-split by the worker so the
// master can route it to a partition accumulator without rehashing.
// Empty partitions are omitted from the Parts list.
type partitionPartial struct {
	ID      int
	Partial map[string]float64
}

// taskSpec is one shard inside a taskbatch frame; the worker answers
// each spec with its own result frame, in order.
type taskSpec struct {
	Job     string
	TaskID  int
	Attempt int
	Records []string
}

// conn wraps a net.Conn with framing and deadlines. A conn is used by
// one goroutine at a time, so its scratch buffers need no locking.
type conn struct {
	raw net.Conn
	r   *bufio.Reader

	// lastDecode is the wire-decode cost of the most recent recv: the
	// worker charges it to a traced task's "decode" span so
	// deserialization overhead is attributed instead of vanishing into
	// RPC time.
	lastDecode time.Duration

	// lastFrameLen is the encoded body size of the most recent recv —
	// what a reducer charges to Stats.ShuffleBytes per fetched frame.
	lastFrameLen int

	// lastRawLen is the decompressed body size of the most recent recv
	// (equal to lastFrameLen-1 for stored bodies); lastRawLen -
	// lastFrameLen is the wire saving frame compression bought, which
	// reducers report as CompBytes.
	lastRawLen int

	keys    []string // sorted-Partial scratch for encode
	body    []byte   // frame read buffer
	cbuf    []byte   // decompression buffer
	scratch message  // decode target; Records/Batch backing reused
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, r: bufio.NewReader(raw)}
}

func (c *conn) send(m message, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	} else if err := c.raw.SetWriteDeadline(time.Time{}); err != nil {
		// A previous timed send must not poison this untimed one.
		return err
	}
	bufp := encBufPool.Get().(*[]byte)
	frame, keys, err := appendFrame((*bufp)[:0], &m, c.keys)
	c.keys = keys
	if err == nil {
		_, err = c.raw.Write(frame) // one write: one frame per chaos fault op
	}
	*bufp = frame[:0]
	encBufPool.Put(bufp)
	if err != nil {
		return fmt.Errorf("netmr: send %s: %w", m.Type, err)
	}
	return nil
}

func (c *conn) recv(timeout time.Duration) (message, error) {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return message{}, err
		}
	} else if err := c.raw.SetReadDeadline(time.Time{}); err != nil {
		return message{}, err
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return message{}, fmt.Errorf("netmr: recv: %w", err)
	}
	if n > maxFrameBytes {
		return message{}, fmt.Errorf("netmr: recv: frame length %d exceeds the %d limit", n, maxFrameBytes)
	}
	if uint64(cap(c.body)) < n {
		c.body = make([]byte, n)
	}
	c.body = c.body[:n]
	if _, err := io.ReadFull(c.r, c.body); err != nil {
		return message{}, fmt.Errorf("netmr: recv: %w", err)
	}
	c.lastFrameLen = len(c.body)
	decodeStart := time.Now()
	raw, scratch, _, err := unwrapCompressedBody(c.body, c.cbuf)
	c.cbuf = scratch
	if err != nil {
		return message{}, fmt.Errorf("netmr: recv: %w", err)
	}
	c.lastRawLen = len(raw)
	if err := decodeFrame(raw, &c.scratch); err != nil {
		return message{}, err
	}
	c.lastDecode = time.Since(decodeStart)
	// The scratch's Records/Batch backing arrays are reclaimed on the
	// next recv; callers are done with them by then (the worker finishes
	// a task before receiving the next frame).
	return c.scratch, nil
}

func (c *conn) close() error { return c.raw.Close() }

// Job is a MapReduce job executable by workers that registered it. Map
// and Reduce must be pure (no shared state): the same job name must mean
// the same computation on every worker.
type Job struct {
	Name   string
	Map    func(record string, emit func(key string, value float64))
	Reduce func(key string, values []float64) float64
	// Combine, when set, declares Reduce a streaming fold:
	// Reduce(k, vs) must equal vs[0] folded with Combine over vs[1:].
	// Workers then combine values as they are emitted instead of
	// buffering them per key, and the master merges partials the same
	// way — the zero-buffer path for associative reductions (sums,
	// counts, min/max).
	Combine func(acc, value float64) float64
}

// Validate checks the job definition.
func (j Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("netmr: job needs a name")
	}
	if j.Map == nil || j.Reduce == nil {
		return fmt.Errorf("netmr: job %q needs Map and Reduce", j.Name)
	}
	return nil
}

// Registry holds the jobs a worker can execute.
type Registry struct {
	jobs map[string]Job
}

// NewRegistry builds a registry from jobs.
func NewRegistry(jobs ...Job) (*Registry, error) {
	r := &Registry{jobs: make(map[string]Job, len(jobs))}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.jobs[j.Name]; dup {
			return nil, fmt.Errorf("netmr: duplicate job %q", j.Name)
		}
		r.jobs[j.Name] = j
	}
	return r, nil
}

// Names lists the registered job names, sorted — map iteration order
// must not leak into hellos, health documents, or logs.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.jobs))
	for name := range r.jobs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup returns the named job.
func (r *Registry) lookup(name string) (Job, bool) {
	j, ok := r.jobs[name]
	return j, ok
}

// partitionIndex hashes key into [0, parts) with FNV-1a — the one hash
// function workers and master must agree on, since a worker-partitioned
// result and a master-side split or lineage re-execution must land
// identical keys in identical partitions.
func partitionIndex(key string, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(parts))
}

// shardScratch holds the flat arena runShard executes in. One scratch
// per worker is reused across every shard it runs, so steady-state
// execution allocates only the result map(s) it ships back.
type shardScratch struct {
	keyIDs   map[string]int // key → dense id, reset per shard
	keys     []string       // id → key
	accs     []float64      // combiner path: running fold per key
	logKeys  []int          // buffered path: emission log (key ids ...)
	logVals  []float64      // ... and values, in emission order
	counts   []int          // per-key emission counts
	ends     []int          // per-key arena end offsets (prefix sums)
	arena    []float64      // all values, grouped by key
	partOf   []int          // partitioned collect: id → partition
	partSize []int          // partitioned collect: keys per partition
	combined bool           // run() took the combiner path
}

func newShardScratch() *shardScratch {
	return &shardScratch{keyIDs: make(map[string]int)}
}

func (sc *shardScratch) reset() {
	clear(sc.keyIDs)
	sc.keys = sc.keys[:0]
	sc.accs = sc.accs[:0]
	sc.logKeys = sc.logKeys[:0]
	sc.logVals = sc.logVals[:0]
}

// run executes the map side of a job over one shard of records,
// pre-reducing locally (combiner) so only one value per key crosses the
// network — mirroring the map-side combine of real frameworks.
//
// Jobs with a Combine fold every emission into a per-key accumulator as
// it happens. Jobs without one log emissions into two flat slices, then
// group the values into a single arena (counting sort by key id), so a
// collector can call Reduce once per key on its contiguous arena window
// — the same grouping map[string][]float64 used to do, without a slice
// per key. After run, sc.keys holds the distinct keys and value(id)
// yields each key's reduced value.
func (sc *shardScratch) run(j Job, records []string) {
	sc.reset()
	sc.combined = j.Combine != nil
	if sc.combined {
		emit := func(k string, v float64) {
			if id, ok := sc.keyIDs[k]; ok {
				sc.accs[id] = j.Combine(sc.accs[id], v)
				return
			}
			sc.keyIDs[k] = len(sc.keys)
			sc.keys = append(sc.keys, k)
			sc.accs = append(sc.accs, v)
		}
		for _, rec := range records {
			j.Map(rec, emit)
		}
		return
	}

	emit := func(k string, v float64) {
		id, ok := sc.keyIDs[k]
		if !ok {
			id = len(sc.keys)
			sc.keyIDs[k] = id
			sc.keys = append(sc.keys, k)
		}
		sc.logKeys = append(sc.logKeys, id)
		sc.logVals = append(sc.logVals, v)
	}
	for _, rec := range records {
		j.Map(rec, emit)
	}
	nk := len(sc.keys)
	if cap(sc.counts) < nk {
		sc.counts = make([]int, nk)
		sc.ends = make([]int, nk)
	}
	sc.counts = sc.counts[:nk]
	sc.ends = sc.ends[:nk]
	clear(sc.counts)
	for _, id := range sc.logKeys {
		sc.counts[id]++
	}
	end := 0
	for id, n := range sc.counts {
		end += n
		sc.ends[id] = end
	}
	if cap(sc.arena) < len(sc.logVals) {
		sc.arena = make([]float64, len(sc.logVals))
	}
	sc.arena = sc.arena[:len(sc.logVals)]
	// Scatter values into per-key windows back to front, so ends[id]
	// walks down to the window start.
	for i := len(sc.logKeys) - 1; i >= 0; i-- {
		id := sc.logKeys[i]
		sc.ends[id]--
		sc.arena[sc.ends[id]] = sc.logVals[i]
	}
}

// value returns key id's shard-local result: the running fold on the
// combiner path, one Reduce over the arena window otherwise.
func (sc *shardScratch) value(j Job, id int) float64 {
	if sc.combined {
		return sc.accs[id]
	}
	lo := sc.ends[id]
	return j.Reduce(sc.keys[id], sc.arena[lo:lo+sc.counts[id]])
}

// runShard executes one shard and collects the result into a single map
// — the unpartitioned wire shape.
func runShard(j Job, records []string, sc *shardScratch) map[string]float64 {
	sc.run(j, records)
	out := make(map[string]float64, len(sc.keys))
	for id, k := range sc.keys {
		out[k] = sc.value(j, id)
	}
	return out
}

// runShardPartitioned executes one shard and collects the result split
// into hash partitions, each map sized exactly, empty partitions
// omitted. The hashing cost this moves onto the worker is the cost the
// master's serial merge no longer pays — the worker side of shrinking
// Ws(n).
func runShardPartitioned(j Job, records []string, sc *shardScratch, parts int) []partitionPartial {
	if parts <= 1 {
		return []partitionPartial{{ID: 0, Partial: runShard(j, records, sc)}}
	}
	sc.run(j, records)
	nk := len(sc.keys)
	if cap(sc.partOf) < nk {
		sc.partOf = make([]int, nk)
	}
	sc.partOf = sc.partOf[:nk]
	if cap(sc.partSize) < parts {
		sc.partSize = make([]int, parts)
	}
	sc.partSize = sc.partSize[:parts]
	clear(sc.partSize)
	for id, k := range sc.keys {
		p := partitionIndex(k, parts)
		sc.partOf[id] = p
		sc.partSize[p]++
	}
	maps := make([]map[string]float64, parts)
	nonEmpty := 0
	for p, n := range sc.partSize {
		if n > 0 {
			maps[p] = make(map[string]float64, n)
			nonEmpty++
		}
	}
	for id, k := range sc.keys {
		maps[sc.partOf[id]][k] = sc.value(j, id)
	}
	out := make([]partitionPartial, 0, nonEmpty)
	for p, m := range maps {
		if m != nil {
			out = append(out, partitionPartial{ID: p, Partial: m})
		}
	}
	return out
}

// Worker-side phase names recorded into span summaries. "map" and
// "combine" are the shard's compute (Wp in the IPSO decomposition);
// "decode", "partition" and "encode" are serialization work that exists
// only because the job is distributed (Wo attribution).
const (
	spanDecode    = "decode"    // wire decode of the task frame
	spanMap       = "map"       // Map pass over the records (incl. streaming Combine)
	spanCombine   = "combine"   // per-key reduction of buffered emissions
	spanPartition = "partition" // hash-splitting keys into merge partitions
	spanEncode    = "encode"    // building the wire-shape result maps
	spanFetch     = "fetch"     // reduce task: pulling intermediate partitions from peers
	spanReduce    = "reduce"    // reduce task: folding the fetched partials
	spanSpill     = "spill"     // writing sorted spill runs when the memory budget is exceeded
	spanMergeRuns = "mergeruns" // reduce task: loser-tree merge-fold of spilled runs
	spanReplicate = "replicate" // pushing a persisted partition set to the replica peer
	spanAwait     = "await"     // early reduce task: waiting for the next morelocs round
)

// spanClock accumulates spanSummary intervals against a fixed epoch —
// the moment the worker received the task, so the master can re-base
// the whole window onto its own clock without synchronized clocks.
type spanClock struct {
	epoch time.Time
	spans []spanSummary
}

// newSpanClock starts a clock whose epoch is decode-duration before now,
// with the decode interval already recorded: the wire decode happened
// before the task body could run.
func newSpanClock(decode time.Duration) (*spanClock, time.Time) {
	now := time.Now()
	if decode < 0 {
		decode = 0
	}
	c := &spanClock{epoch: now.Add(-decode)}
	c.spans = append(c.spans, spanSummary{Phase: spanDecode, Start: 0, End: decode.Seconds()})
	return c, now
}

// mark records phase as [from, now) and returns now for chaining.
func (c *spanClock) mark(phase string, from time.Time) time.Time {
	now := time.Now()
	c.spans = append(c.spans, spanSummary{
		Phase: phase,
		Start: from.Sub(c.epoch).Seconds(),
		End:   now.Sub(c.epoch).Seconds(),
	})
	return now
}

// appendSpanAfter appends a synthetic span of duration d placed right
// after the latest recorded interval — how spill and replicate work
// that happens outside the shard-compute clock joins the timeline
// without overlapping the compute spans.
func appendSpanAfter(spans []spanSummary, phase string, d time.Duration) []spanSummary {
	if d <= 0 {
		return spans
	}
	end := 0.0
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
	}
	return append(spans, spanSummary{Phase: phase, Start: end, End: end + d.Seconds()})
}

// runShardTraced is runShard with per-phase span recording. It is a
// separate function so the untraced hot path (whose allocation profile
// CI gates) is untouched; the extra cost here — a few clock reads and
// one spans slice — is exactly what the tracing-overhead benchmark
// bounds. The per-key reduction runs as its own pass (the "combine"
// span) instead of fused into map building, so Wp splits into its two
// constituents.
func runShardTraced(j Job, records []string, sc *shardScratch, decode time.Duration) (map[string]float64, []spanSummary) {
	clock, t := newSpanClock(decode)
	sc.run(j, records)
	t = clock.mark(spanMap, t)
	vals := make([]float64, len(sc.keys))
	for id := range sc.keys {
		vals[id] = sc.value(j, id)
	}
	t = clock.mark(spanCombine, t)
	out := make(map[string]float64, len(sc.keys))
	for id, k := range sc.keys {
		out[k] = vals[id]
	}
	clock.mark(spanEncode, t)
	return out, clock.spans
}

// runShardPartitionedTraced is runShardPartitioned with per-phase span
// recording; the hash split gets its own "partition" span so the cost
// pre-splitting moves off the master is visible in the timeline.
func runShardPartitionedTraced(j Job, records []string, sc *shardScratch, parts int, decode time.Duration) ([]partitionPartial, []spanSummary) {
	if parts <= 1 {
		out, spans := runShardTraced(j, records, sc, decode)
		return []partitionPartial{{ID: 0, Partial: out}}, spans
	}
	clock, t := newSpanClock(decode)
	sc.run(j, records)
	t = clock.mark(spanMap, t)
	vals := make([]float64, len(sc.keys))
	for id := range sc.keys {
		vals[id] = sc.value(j, id)
	}
	t = clock.mark(spanCombine, t)
	nk := len(sc.keys)
	if cap(sc.partOf) < nk {
		sc.partOf = make([]int, nk)
	}
	sc.partOf = sc.partOf[:nk]
	if cap(sc.partSize) < parts {
		sc.partSize = make([]int, parts)
	}
	sc.partSize = sc.partSize[:parts]
	clear(sc.partSize)
	for id, k := range sc.keys {
		p := partitionIndex(k, parts)
		sc.partOf[id] = p
		sc.partSize[p]++
	}
	t = clock.mark(spanPartition, t)
	maps := make([]map[string]float64, parts)
	nonEmpty := 0
	for p, n := range sc.partSize {
		if n > 0 {
			maps[p] = make(map[string]float64, n)
			nonEmpty++
		}
	}
	for id, k := range sc.keys {
		maps[sc.partOf[id]][k] = vals[id]
	}
	out := make([]partitionPartial, 0, nonEmpty)
	for p, m := range maps {
		if m != nil {
			out = append(out, partitionPartial{ID: p, Partial: m})
		}
	}
	clock.mark(spanEncode, t)
	return out, clock.spans
}
