package netmr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipso/internal/runner"
)

// The partitioned, map-overlapped merge engine. The old merge was the
// runtime's textbook Ws(n): the master waited at the split barrier, then
// folded every worker partial through one goroutine — serial work that
// grows with the number of distinct keys shipped back, exactly the
// in-proportion serial portion the IPSO model (Eq. 7/8) says caps
// speedup. The engine attacks it on both axes:
//
//   - overlap: every arriving partial is folded the moment it lands,
//     while the map phase is still draining, so most merge work hides
//     under the split wall instead of extending the job past it;
//   - parallelism: keys are hash-partitioned (partitionIndex) and each
//     partition is owned by one folder goroutine — lock-free, because
//     ownership is the synchronization — then finalized in parallel via
//     runner.Map.
//
// Workers told P > 1 in the helloack ship results already split per
// partition (presult frames); a flat partial (P = 1, or a result frame)
// is split by the engine's router on arrival. Both paths land identical
// keys in identical partitions.

// mergeFeed is one shard result queued for routing: either already
// partitioned by the worker (parts) or flat (whole).
type mergeFeed struct {
	parts []partitionPartial
	whole pairs
}

// errDuplicateKey names a partial that carries one key twice. A map
// could never hold that, and a flat partial must not either: a fold
// would count the key's value twice. Every fold and union rejects it.
var errDuplicateKey = errors.New("duplicate key")

// keyFold folds a sequence of partials into one key space through a
// key → id table, keys in first-seen order. Jobs with a Combine keep a
// running accumulator per key; the rest log every (id, value) and group
// the log once in result, so each key's values reach Reduce in input
// order either way — the order serialMerge, the engine and the reduce
// tasks all fold in. seen holds, per key, the ordinal of the last input
// that carried it, which makes a key repeated within one input a
// constant-time check instead of a double count.
type keyFold struct {
	job     Job
	ids     map[string]int32
	keys    []string
	accs    []float64 // Combine path: running fold per key
	seen    []int32   // per key: ordinal (from 1) of the last input carrying it
	inputs  int32     // inputs added so far
	logIDs  []int32   // Reduce path: every added value's key id ...
	logVals []float64 // ... and the value, in input order
}

// newKeyFold starts a fold over inputs that hold n pairs in total (0:
// not known up front). n bounds the distinct keys, so the key table and
// the per-key slices are allocated once: no rehash as the table fills
// and no regrowth. Where keys repeat across many inputs the bound
// overshoots, by at most the n pairs the inputs already hold.
func newKeyFold(job Job, n int) *keyFold {
	f := &keyFold{job: job, ids: make(map[string]int32, n), keys: make([]string, 0, n), seen: make([]int32, 0, n)}
	if job.Combine != nil {
		f.accs = make([]float64, 0, n)
	} else {
		f.logIDs = make([]int32, 0, n)
		f.logVals = make([]float64, 0, n)
	}
	return f
}

// grown returns s with room for one more element, doubling it when
// full. Only folds not presized grow — the merge engine's partitions,
// whose inputs arrive one at a time. append alone grows a large slice by
// about a quarter at a time, allocating several times its final size;
// doubling bounds the total at about twice that.
func grown[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), 64)), s...)
}

// add folds one partial in. On a key the partial repeats it stops and
// returns errDuplicateKey naming the key; the fold is then unusable.
func (f *keyFold) add(p pairs) error {
	f.inputs++
	combine := f.job.Combine
	for i, k := range p.Keys {
		v := p.Vals[i]
		id, ok := f.ids[k]
		switch {
		case !ok:
			id = int32(len(f.keys))
			f.ids[k] = id
			f.keys = append(grown(f.keys), k)
			f.seen = append(grown(f.seen), f.inputs)
			if combine != nil {
				f.accs = append(grown(f.accs), v)
				continue
			}
		case f.seen[id] == f.inputs:
			return fmt.Errorf("key %q: %w", k, errDuplicateKey)
		case combine != nil:
			f.seen[id] = f.inputs
			f.accs[id] = combine(f.accs[id], v)
			continue
		default:
			f.seen[id] = f.inputs
		}
		f.logIDs = append(grown(f.logIDs), id)
		f.logVals = append(grown(f.logVals), v)
	}
	return nil
}

// result finishes the fold: the accumulators on the Combine path, one
// Reduce per key over its values (grouped by a stable counting sort of
// the log) otherwise.
func (f *keyFold) result() pairs {
	if f.job.Combine != nil {
		return pairs{Keys: f.keys, Vals: f.accs}
	}
	starts := make([]int, len(f.keys)+1)
	for _, id := range f.logIDs {
		starts[id+1]++
	}
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	next := append([]int(nil), starts[:len(f.keys)]...)
	arena := make([]float64, len(f.logVals))
	for i, id := range f.logIDs {
		arena[next[id]] = f.logVals[i]
		next[id]++
	}
	vals := make([]float64, len(f.keys))
	for id, k := range f.keys {
		lo, hi := starts[id], starts[id+1]
		vals[id] = f.job.Reduce(k, arena[lo:hi:hi])
	}
	return pairs{Keys: f.keys, Vals: vals}
}

// unionPairs builds the job's output map once, sized from the disjoint
// key spaces it unions. A key that arrives twice — in two parts, or
// twice in one — is errDuplicateKey naming the part: the parts are
// disjoint by construction, so a repeat is a bad peer, and copying it
// would silently keep one of two values. The check is free: the map
// must grow on every insert.
func unionPairs(parts []pairs) (map[string]float64, error) {
	total := 0
	for _, p := range parts {
		total += len(p.Keys)
	}
	out := make(map[string]float64, total)
	for i, p := range parts {
		for j, k := range p.Keys {
			n := len(out)
			out[k] = p.Vals[j]
			if len(out) == n {
				return nil, fmt.Errorf("netmr: key %q arrives again in partition %d: %w", k, i, errDuplicateKey)
			}
		}
	}
	return out, nil
}

// mergeEngine owns the partition accumulators of one Run.
type mergeEngine struct {
	job   Job
	parts int

	inbox chan mergeFeed // Run loop → router; buffered one slot per shard
	chans []chan pairs   // router → folders, one per partition

	// Per-partition state, each slot owned by its folder goroutine until
	// the folders are joined. busy is atomic (nanoseconds) because the
	// Run loop samples it at the split barrier — overlapped() — while
	// the folders are still appending to it.
	folds []*keyFold
	errs  []error // per partition: the fold's first error
	busy  []atomic.Int64

	routerDone chan struct{}
	folders    sync.WaitGroup
	finished   bool
}

// newMergeEngine builds an engine for one Run of job with the given
// partition count and shard count (the inbox bound: every shard feeds
// exactly once, so the Run loop never blocks on a feed).
func newMergeEngine(job Job, parts, shards int) *mergeEngine {
	if parts < 1 {
		parts = 1
	}
	e := &mergeEngine{
		job:        job,
		parts:      parts,
		inbox:      make(chan mergeFeed, shards),
		chans:      make([]chan pairs, parts),
		folds:      make([]*keyFold, parts),
		errs:       make([]error, parts),
		busy:       make([]atomic.Int64, parts),
		routerDone: make(chan struct{}),
	}
	for p := range e.chans {
		e.folds[p] = newKeyFold(job, 0)
		e.chans[p] = make(chan pairs, shards)
	}
	go e.route()
	for p := 0; p < parts; p++ {
		e.folders.Add(1)
		go e.fold(p)
	}
	return e
}

// feed hands one winning shard result to the engine. Called only from
// the Run loop; the inbox is sized so it never blocks.
func (e *mergeEngine) feed(parts []partitionPartial, whole pairs) {
	e.inbox <- mergeFeed{parts: parts, whole: whole}
}

// route drains the inbox, splitting flat partials by key hash, and
// forwards each piece to its partition's folder. Runs until the inbox
// closes, so splitting cost never stalls the dispatch loop.
func (e *mergeEngine) route() {
	defer func() {
		for _, ch := range e.chans {
			close(ch)
		}
		close(e.routerDone)
	}()
	for f := range e.inbox {
		if f.parts != nil {
			for _, part := range f.parts {
				if len(part.Partial.Keys) > 0 {
					e.chans[part.ID] <- part.Partial
				}
			}
			continue
		}
		if e.parts == 1 {
			if len(f.whole.Keys) > 0 {
				e.chans[0] <- f.whole
			}
			continue
		}
		split := make([]pairs, e.parts)
		hint := len(f.whole.Keys)/e.parts + 1
		for p := range split {
			split[p] = pairs{Keys: make([]string, 0, hint), Vals: make([]float64, 0, hint)}
		}
		for i, k := range f.whole.Keys {
			p := partitionIndex(k, e.parts)
			split[p].Keys = append(split[p].Keys, k)
			split[p].Vals = append(split[p].Vals, f.whole.Vals[i])
		}
		for p, part := range split {
			if len(part.Keys) > 0 {
				e.chans[p] <- part
			}
		}
	}
}

// fold is partition p's owner: it folds every partial routed to p. No
// locks — only this goroutine touches folds[p] and errs[p] until
// folders.Wait returns (busy[p] is atomic for overlapped's sake). After
// a fold error it only drains its channel.
func (e *mergeEngine) fold(p int) {
	defer e.folders.Done()
	for c := range e.chans[p] {
		if e.errs[p] != nil {
			continue
		}
		start := time.Now()
		if err := e.folds[p].add(c); err != nil {
			e.errs[p] = fmt.Errorf("netmr: merge partition %d: a shard result repeats %w", p, err)
		}
		e.busy[p].Add(int64(time.Since(start)))
	}
}

// finalize closes the intake, joins the folders, reduces each partition
// in parallel on the context's runner pool, and unions the disjoint
// partitions into one exactly-sized result map. After finalize the
// engine is spent.
func (e *mergeEngine) finalize(ctx context.Context) (map[string]float64, error) {
	e.shutdown()
	if err := errors.Join(e.errs...); err != nil {
		return nil, err
	}
	finals, err := runner.Map(ctx, e.parts, func(_ context.Context, p int) (pairs, error) {
		start := time.Now()
		out := e.folds[p].result()
		e.busy[p].Add(int64(time.Since(start)))
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return unionPairs(finals)
}

// overlapped reports the fold work the folders have performed so far.
// Sampled at the split barrier it is the Ws the engine actually hid
// under the map phase — the busy time, not the wall-clock window from
// the first feed, which is mostly idle waiting for map results and
// would overstate the overlap.
func (e *mergeEngine) overlapped() time.Duration {
	var total time.Duration
	for p := range e.busy {
		total += time.Duration(e.busy[p].Load())
	}
	return total
}

// shutdown closes the intake and joins the router and folders; it is
// idempotent, so a Run that errors out mid-job can abandon the engine
// without leaking its goroutines.
func (e *mergeEngine) shutdown() {
	if e.finished {
		return
	}
	e.finished = true
	close(e.inbox)
	<-e.routerDone
	e.folders.Wait()
}

// validateParts rejects a presult whose partition ids fall outside
// [0, parts): routing an attacker- or corruption-supplied id would index
// out of range, so a bad frame fails the launch instead.
func validateParts(parts []partitionPartial, n int) error {
	for _, p := range parts {
		if p.ID < 0 || p.ID >= n {
			return fmt.Errorf("netmr: partition id %d outside [0,%d)", p.ID, n)
		}
	}
	return nil
}
