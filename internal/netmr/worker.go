package netmr

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ipso/internal/chaos"
)

// Worker connects to a master and executes shards of registered jobs
// until the connection closes or Stop is called. One worker handles one
// task at a time — the "one container per processing unit" configuration
// of the paper's experiments.
type Worker struct {
	registry *Registry
	chaos    *chaos.Injector
	scratch  *shardScratch // reused across every shard this worker runs

	// Distributed-reduce state: reducers is the reduce partition count
	// the helloack set (written once by Start before any task arrives);
	// fetchAddr is this worker's shuffle listener address (advertised in
	// the hello) and store its intermediate map-output store, which the
	// shuffle server goroutines read concurrently. fetchListen is the
	// listener's bind address.
	reducers    int
	fetchListen string
	fetchAddr   string
	fetchLn     net.Listener
	store       *interStore

	// fetchConns tracks the accepted shuffle-plane sockets (guarded by
	// mu) so tearing the plane down severs in-flight peers too: closing
	// only the listener refuses new dials but leaves accepted sockets —
	// and the peers' pooled connections riding them — fully alive.
	fetchConns map[net.Conn]struct{}

	// Pipelined-shuffle state: pool caches idle shuffle-plane connections
	// per peer (reused by reduce fetches and replication pushes), and
	// shuffleFanout bounds how many peers one reduce task fetches from
	// concurrently.
	pool          *shufflePool
	shuffleFanout int

	// Out-of-core configuration (WithWorkerConfig). The shuffle timeout
	// is atomic because the helloack may adjust it while the
	// fetch-listener goroutines are already serving peers.
	shuffleTimeoutNs atomic.Int64
	spillBudget      int64
	spillDir         string

	// killAfterMapdone is a test hook: after the first successful
	// mapdone the worker tears its shuffle listener down and dies, the
	// "mapper lost mid-shuffle" chaos scenario.
	killAfterMapdone bool

	// closeFetchAfterMapdone is a milder test hook: after the first
	// successful mapdone the worker closes only its shuffle listener but
	// stays alive and keeps mapping. The master still routes fetches at
	// the primary, so reducers must fail over to the replica addresses
	// on their own — the worker-local failover scenario.
	closeFetchAfterMapdone bool

	mu      sync.Mutex
	netConn net.Conn
	stopped bool
	done    chan struct{}
}

// WorkerOption configures a Worker at construction.
type WorkerOption func(*Worker)

// WithChaos attaches a fault injector: the worker's connection gains
// wire-level faults (latency, drops, corruption, partitions) and every
// task attempt consults TaskFault for injected execution latency and
// crashes — the knobs that manufacture stragglers and churn on demand.
func WithChaos(in *chaos.Injector) WorkerOption {
	return func(w *Worker) { w.chaos = in }
}

// WorkerConfig is the out-of-core shuffle tuning of one worker.
type WorkerConfig struct {
	// ShuffleTimeout bounds one shuffle round-trip (fetch or replicate).
	// Zero means the 30s default; the master's helloack may lower or
	// raise it cluster-wide.
	ShuffleTimeout time.Duration
	// SpillBudget bounds the bytes of intermediate state kept resident —
	// both the map-output store and each reduce task's gather buffer.
	// Zero keeps everything in memory (the previous behavior).
	SpillBudget int64
	// SpillDir is the scratch root for spill files; empty means the OS
	// temp dir. Files live under <SpillDir>/netmr-spill/<run>/.
	SpillDir string
	// ShuffleFanout bounds how many peers one reduce task fetches from
	// concurrently; it also caps the idle connections the shuffle pool
	// keeps per peer. Zero means the default (4); 1 gathers serially.
	ShuffleFanout int
}

// WithWorkerConfig applies out-of-core shuffle settings.
func WithWorkerConfig(cfg WorkerConfig) WorkerOption {
	return func(w *Worker) {
		if cfg.ShuffleTimeout > 0 {
			w.shuffleTimeoutNs.Store(int64(cfg.ShuffleTimeout))
		}
		w.spillBudget = cfg.SpillBudget
		w.spillDir = cfg.SpillDir
		if cfg.ShuffleFanout > 0 {
			w.shuffleFanout = cfg.ShuffleFanout
		}
	}
}

// shuffleTO is the current shuffle round-trip bound, safe to read from
// the fetch-server goroutines while the helloack updates it.
func (w *Worker) shuffleTO() time.Duration {
	return time.Duration(w.shuffleTimeoutNs.Load())
}

// NewWorker builds a worker executing jobs from the registry.
func NewWorker(registry *Registry, opts ...WorkerOption) (*Worker, error) {
	if registry == nil || len(registry.jobs) == 0 {
		return nil, errors.New("netmr: worker needs a non-empty registry")
	}
	w := &Worker{
		registry:      registry,
		scratch:       newShardScratch(),
		fetchListen:   "127.0.0.1:0",
		store:         newInterStore(),
		shuffleFanout: defaultShufflePoolPerPeer,
		fetchConns:    make(map[net.Conn]struct{}),
		done:          make(chan struct{}),
	}
	w.shuffleTimeoutNs.Store(int64(defaultShuffleTimeout))
	for _, opt := range opts {
		opt(w)
	}
	w.store.configure(w.spillBudget, w.spillDir)
	w.pool = newShufflePool(w.shuffleFanout)
	return w, nil
}

// StoreStats reports the intermediate store's high-water resident bytes
// and cumulative spill volume — what a budget-constrained run asserts
// it never exceeded its budget with.
func (w *Worker) StoreStats() (peakBytes, spilledBytes int64, spillRuns int) {
	return w.store.stats()
}

// Start binds the worker's shuffle listener, connects to the master,
// completes the hello exchange and serves tasks on a background
// goroutine. It fails when the listener cannot bind or the master
// refuses the hello (a protocol version mismatch names both versions).
// Use Stop (or closing the master) to terminate.
func (w *Worker) Start(masterAddr string) error {
	raw, err := net.DialTimeout("tcp", masterAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("netmr: dial master: %w", err)
	}
	c := newConn(w.chaos.WrapConn("", raw))
	fail := func(err error) error {
		_ = c.close()
		w.closeFetchPlane()
		return err
	}
	addr, err := w.startFetchListener()
	if err != nil {
		return fail(err)
	}
	w.fetchAddr = addr
	// The local endpoint is a unique, stable identity for this connection;
	// the master uses it to attribute shards, failures and RPC latency to
	// a specific worker.
	hello := message{Type: "hello", ID: raw.LocalAddr().String(), Jobs: w.registry.Names(), Version: protocolVersion, Fetch: addr}
	if err := c.send(hello, 5*time.Second); err != nil {
		return fail(err)
	}
	ack, err := c.recv(10 * time.Second)
	if err != nil {
		return fail(err)
	}
	if ack.Type != "helloack" {
		return fail(fmt.Errorf("netmr: master refused hello: %s", ack.Message))
	}
	w.reducers = ack.Reducers
	w.store.setReducers(ack.Reducers)
	if ack.ShuffleMs > 0 {
		w.shuffleTimeoutNs.Store(int64(time.Duration(ack.ShuffleMs) * time.Millisecond))
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return fail(errors.New("netmr: worker already stopped"))
	}
	w.netConn = raw
	w.mu.Unlock()

	go func() {
		defer close(w.done)
		defer func() { _ = c.close() }()
		w.serve(c)
	}()
	return nil
}

func (w *Worker) serve(c *conn) {
	for {
		m, err := c.recv(0) // block until the master sends work or closes
		if err != nil {
			return
		}
		switch m.Type {
		case "task":
			if !w.runTask(c, m.Job, m.TaskID, m.Attempt, m.Records, m.Run, m.Trace, m.Rep, c.lastDecode) {
				return
			}
		case "taskbatch":
			// One frame, several shards: each spec is executed in order
			// and answered with its own result frame. The frame's wire
			// decode happened once, so its cost is charged to the first
			// shard's decode span only.
			decode := c.lastDecode
			for i := range m.Batch {
				spec := &m.Batch[i]
				if !w.runTask(c, spec.Job, spec.TaskID, spec.Attempt, spec.Records, m.Run, m.Trace, m.Rep, decode) {
					return
				}
				decode = 0
			}
		case "reducetask":
			if !w.runReduceTask(c, m, c.lastDecode) {
				return
			}
		case "ping":
			workerPings.Inc()
			if err := c.send(message{Type: "pong"}, 5*time.Second); err != nil {
				return
			}
		default:
			// Ignore unknown frames.
		}
	}
}

// runTask executes one shard and reports its result (or error) to the
// master. It returns false when the serve loop must exit: a send
// failure or an injected crash. run, when non-empty, is the persist-mode
// signal of a distributed-reduce job: the shard's output is partitioned
// by the helloack's reducer count, stored for peer fetches, and only a
// mapdone travels back. trace is the job trace ID stamped on the task
// frame: non-empty means record phase spans and echo it back on the
// result. decode is the wire-decode cost of the frame that carried this
// shard. rep, in persist mode, names the peer shuffle listener to
// replicate the partition set to before mapdone.
func (w *Worker) runTask(c *conn, jobName string, taskID, attempt int, records []string, run, trace, rep string, decode time.Duration) bool {
	job, ok := w.registry.lookup(jobName)
	if !ok {
		workerTasks.With("unknown_job").Inc()
		_ = c.send(message{Type: "error", TaskID: taskID, Message: fmt.Sprintf("unknown job %q", jobName)}, 5*time.Second)
		return true
	}
	if f := w.chaos.TaskFault("task", taskID, attempt); f.Delay > 0 || f.Crash {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Crash {
			// A crashed worker dies without a word: the connection
			// closes and the master reassigns the shard.
			workerTasks.With("crashed").Inc()
			return false
		}
	}
	traced := trace != ""
	start := time.Now()
	if run != "" && w.reducers > 0 {
		// Persist mode: partition by the reduce count, keep the output
		// local for the reduce phase, acknowledge with a mapdone. The
		// shuffle bytes this keeps off the master are the whole point.
		var parts []partitionPartial
		var spans []spanSummary
		if traced {
			parts, spans = runShardPartitionedTraced(job, records, w.scratch, w.reducers, decode)
		} else {
			parts = runShardPartitioned(job, records, w.scratch, w.reducers)
		}
		putStart := time.Now()
		spills, spilled, saved, perr := w.store.put(run, taskID, parts, w.reducers)
		if perr != nil {
			// Spill failure leaves the set resident — correct, just over
			// budget; the job proceeds.
			workerSpillErrors.Inc()
		}
		putDur := time.Since(putStart)
		done := message{Type: "mapdone", TaskID: taskID, Attempt: attempt, Run: run, Trace: trace,
			Spills: spills, Spilled: spilled, CompBytes: saved}
		if spills > 0 {
			workerSpillRuns.Add(float64(spills))
			workerSpilledBytes.Add(float64(spilled))
		}
		var repDur time.Duration
		if rep != "" {
			repStart := time.Now()
			if rerr := w.pool.replicateParts(rep, run, taskID, parts, w.reducers, w.shuffleTO()); rerr == nil {
				done.Rep = rep
				workerReplications.With("ok").Inc()
			} else {
				// The named peer would not take the replica: ship the
				// set inline so the master holds it instead.
				done.Parts = parts
				workerReplications.With("failed").Inc()
			}
			repDur = time.Since(repStart)
		} else {
			// No peer qualifies: the master holds the replica.
			done.Parts = parts
		}
		if traced {
			if spills > 0 {
				spans = appendSpanAfter(spans, spanSpill, putDur)
			}
			spans = appendSpanAfter(spans, spanReplicate, repDur)
		}
		done.Spans = spans
		workerTaskSeconds.Observe(time.Since(start).Seconds())
		workerTasks.With("ok").Inc()
		if c.send(done, 30*time.Second) != nil {
			return false
		}
		if w.killAfterMapdone {
			// Chaos hook: die right after acknowledging the map output,
			// taking the shuffle plane — and the only primary copy —
			// with us.
			w.closeFetchPlane()
			w.store.evictAll()
			return false
		}
		if w.closeFetchAfterMapdone {
			// Chaos hook: the shuffle plane dies — listener and accepted
			// peer sockets both — but the worker does not, so the master
			// keeps routing fetches here and reducers must fail over to
			// the replica addresses themselves.
			w.closeFetchPlane()
		}
		return true
	}
	var partial pairs
	var spans []spanSummary
	if traced {
		partial, spans = runShardTraced(job, records, w.scratch, decode)
	} else {
		partial = runShard(job, records, w.scratch)
	}
	workerTaskSeconds.Observe(time.Since(start).Seconds())
	workerTasks.With("ok").Inc()
	return c.send(message{Type: "result", TaskID: taskID, Attempt: attempt, Partial: partial, Trace: trace, Spans: spans}, 30*time.Second) == nil
}

// Stop closes the connection and waits for the serve loop to exit. It is
// safe to call before Start (the worker then refuses to start) and more
// than once.
func (w *Worker) Stop() {
	w.mu.Lock()
	already := w.stopped
	w.stopped = true
	nc := w.netConn
	w.mu.Unlock()
	w.closeFetchPlane()
	if nc != nil {
		nc.Close()
	}
	if nc != nil && !already {
		<-w.done
	}
	// Release the intermediate store — spill files included — now that
	// no task can touch it; late shuffle fetches get refusals.
	w.store.evictAll()
	w.pool.closeAll()
}
