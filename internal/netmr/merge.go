package netmr

import (
	"errors"
	"fmt"
)

// The master's merge: with Reducers 0 every winning shard result is
// folded into one keyFold the moment it arrives, while the map phase
// still drains; at the split barrier only the fold's result and the one
// union into the output map remain. That post-barrier tail is the
// runtime's Ws(n), the serial residue of Eq. 7/8. With Reducers > 0 the
// same keyFold runs inside each reduce task on the workers, and the
// master's tail is the union of the R disjoint results.

// errDuplicateKey names a partial that carries one key twice. A map
// could never hold that, and a flat partial must not either: a fold
// would count the key's value twice. Every fold and union rejects it.
var errDuplicateKey = errors.New("duplicate key")

// keyFold folds a sequence of partials into one key space through a
// key → id table, keys in first-seen order. Jobs with a Combine keep a
// running accumulator per key; the rest log every (id, value) and group
// the log once in result, so each key's values reach Reduce in input
// order either way — the order serialMerge, the master and the reduce
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
// full. Only folds not presized grow — the master's fold, whose inputs
// arrive one at a time. append alone grows a large slice by about a
// quarter at a time, allocating several times its final size; doubling
// bounds the total at about twice that.
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

// validateParts rejects inline parts whose partition ids fall outside
// [0, n): a mapdone's master-held replica is sliced by partition id when
// reduce tasks are planned, and a part no reduce partition claims would
// silently drop its keys, so a bad frame fails the launch instead.
func validateParts(parts []partitionPartial, n int) error {
	for _, p := range parts {
		if p.ID < 0 || p.ID >= n {
			return fmt.Errorf("netmr: partition id %d outside [0,%d)", p.ID, n)
		}
	}
	return nil
}

// serialMerge folds every partial through one keyFold presized by the
// total pair count, in the given order, and builds the output map: the
// master's on-arrival fold with all inputs known up front. Tests and
// benchmarks use it as the oracle the runtime's output must equal. A key
// one partial repeats fails the merge (errDuplicateKey).
func serialMerge(job Job, partials []pairs) (map[string]float64, error) {
	n := 0
	for _, p := range partials {
		n += len(p.Keys)
	}
	f := newKeyFold(job, n)
	for i, p := range partials {
		if err := f.add(p); err != nil {
			return nil, fmt.Errorf("netmr: serial merge: shard result %d repeats %w", i, err)
		}
	}
	return unionPairs([]pairs{f.result()})
}
