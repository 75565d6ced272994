package netmr

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// Out-of-core halves of the shuffle: the map-side interStore spills
// whole map-task partition sets to per-run temp files when its byte
// budget is exceeded, and the reduce-side fold buffers gathered task
// partials through a spillFolder that flushes sorted runs and merges
// them back with a loser tree. Both sides keep the fold order — and
// therefore the job output — byte-identical to the all-in-memory path:
// per key, values are folded in ascending map-task order either way.

// partialMemBytes estimates the resident cost of one partition set: key
// bytes + an 8-byte value + fixed per-entry overhead. The estimate only
// needs to be deterministic and monotone with real usage; the budget is
// a watermark, not an allocator.
func partialMemBytes(parts []partitionPartial) int64 {
	var n int64
	for _, p := range parts {
		for _, k := range p.Partial.Keys {
			n += int64(len(k)) + 8 + 16
		}
		n += 48 // partial header + slice entry
	}
	return n
}

// spillFile is one map task's partition set on disk: R sections in
// partition order, each section the partition's pairs in the layout a
// frame carries them (appendPairs), in the order the partial holds them —
// LZ-compressed when that actually shrinks it. Sections are only ever
// read back whole, so nothing needs them sorted. The offset index stays
// in memory so a fetch reads exactly one section back.
type spillFile struct {
	f       *os.File
	offsets []int64 // per partition: section start; -1 when the partition is empty
	lengths []int64 // on-disk section length
	rawLens []int64 // uncompressed length; 0 means the section is stored raw
}

// writeSpillFile flushes parts (a task's partition set, partition count
// reducers) to a new file under dir and returns the handle, the bytes
// that hit disk, and the bytes compression saved. Sections at or above
// lzCompressThreshold are compressed when the result is smaller — the
// same policy frames use on the wire, so tiny sections never pay the
// compressor for nothing.
func writeSpillFile(dir string, task int, parts []partitionPartial, reducers int) (*spillFile, int64, int64, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("task-%d-*.spill", task))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("netmr: spill create: %w", err)
	}
	sf := &spillFile{f: f, offsets: make([]int64, reducers), lengths: make([]int64, reducers), rawLens: make([]int64, reducers)}
	for p := range sf.offsets {
		sf.offsets[p] = -1
	}
	w := bufio.NewWriter(f)
	var off, saved int64
	var sec, cbuf []byte
	for _, part := range parts {
		if part.ID < 0 || part.ID >= reducers {
			continue // validated upstream; never index out of the section table
		}
		sec = appendPairs(sec[:0], part.Partial)
		payload := sec
		if len(sec) >= lzCompressThreshold {
			cbuf = lzCompress(cbuf[:0], sec)
			if len(cbuf) < len(sec) {
				payload = cbuf
				sf.rawLens[part.ID] = int64(len(sec))
				saved += int64(len(sec) - len(cbuf))
			}
		}
		if _, err := w.Write(payload); err != nil {
			return nil, 0, 0, closeSpillErr(sf, err)
		}
		sf.offsets[part.ID] = off
		sf.lengths[part.ID] = int64(len(payload))
		off += int64(len(payload))
	}
	if err := w.Flush(); err != nil {
		return nil, 0, 0, closeSpillErr(sf, err)
	}
	return sf, off, saved, nil
}

func closeSpillErr(sf *spillFile, err error) error {
	sf.remove()
	return fmt.Errorf("netmr: spill write: %w", err)
}

// section reads one partition's slice back (empty when the task emitted
// nothing into it), in the order it was written.
func (sf *spillFile) section(partition int) (pairs, error) {
	if partition < 0 || partition >= len(sf.offsets) || sf.offsets[partition] < 0 {
		return pairs{}, nil
	}
	buf := make([]byte, sf.lengths[partition])
	if _, err := sf.f.ReadAt(buf, sf.offsets[partition]); err != nil {
		return pairs{}, fmt.Errorf("netmr: spill read: %w", err)
	}
	if raw := sf.rawLens[partition]; raw > 0 {
		dec, err := lzDecompress(make([]byte, 0, raw), buf, int(raw))
		if err != nil {
			return pairs{}, fmt.Errorf("netmr: spill read: %w", err)
		}
		buf = dec
	}
	r := &frameReader{s: string(buf)}
	out, err := r.pairs()
	if err != nil {
		return pairs{}, fmt.Errorf("netmr: spill read: %w", err)
	}
	if r.off != len(r.s) {
		return pairs{}, fmt.Errorf("netmr: spill read: %d trailing bytes after section", len(r.s)-r.off)
	}
	return out, nil
}

// remove closes and deletes the backing file.
func (sf *spillFile) remove() {
	name := sf.f.Name()
	_ = sf.f.Close()
	_ = os.Remove(name)
}

// spillTriple is one (key, map task, value) record of a reduce-side
// spill run, the unit the loser tree merges on.
type spillTriple struct {
	key  string
	task int
	val  float64
}

// tripleCmp orders triples by (key, ascending map task) — the exact
// fold order of the in-memory path, so a merged fold feeds each key its
// values in the same sequence.
func tripleCmp(a, b spillTriple) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.task, b.task)
}

// tripleStream yields sorted triples — from a spilled run file or the
// in-memory remainder — until exhausted.
type tripleStream interface {
	next() (spillTriple, bool, error)
}

// memTripleStream iterates a sorted in-memory triple slice.
type memTripleStream struct {
	triples []spillTriple
	i       int
}

func (s *memTripleStream) next() (spillTriple, bool, error) {
	if s.i >= len(s.triples) {
		return spillTriple{}, false, nil
	}
	t := s.triples[s.i]
	s.i++
	return t, true, nil
}

// spillBlockSize is the raw-byte granularity reduce-side run files are
// compressed at: big enough to amortize block headers and give the
// compressor context, small enough to keep the read-back streaming.
const spillBlockSize = 64 << 10

// spillRunReader reads a block-framed run back one block at a time.
// Each block is flag(1B: 0 raw, 1 compressed) || uvarint(raw length) ||
// uvarint(payload length) || payload, and the writer closes a block only
// between triples, so every block parses on its own and a merged fold
// never holds more than one block of any run resident.
type spillRunReader struct {
	r   *bufio.Reader
	buf *blockScratch // shared by every run of the fold
}

// blockScratch is the payload and decompression buffers a fold's runs
// read their blocks through. One set serves them all: a block is copied
// into a string as soon as it is read.
type blockScratch struct {
	blk []byte
	pay []byte
}

// block returns the next block's raw bytes, valid until the next call.
// A clean end-of-file between blocks is io.EOF; truncation inside a
// block is a hard error.
func (s *spillRunReader) block() ([]byte, error) {
	flag, err := s.r.ReadByte()
	if err != nil {
		return nil, err // io.EOF: clean end of the run
	}
	rawLen, err := binary.ReadUvarint(s.r)
	if err != nil {
		return nil, fmt.Errorf("netmr: spill run block header: %w", err)
	}
	payLen, err := binary.ReadUvarint(s.r)
	if err != nil {
		return nil, fmt.Errorf("netmr: spill run block header: %w", err)
	}
	b := s.buf
	if cap(b.pay) < int(payLen) {
		b.pay = make([]byte, payLen)
	}
	b.pay = b.pay[:payLen]
	if _, err := io.ReadFull(s.r, b.pay); err != nil {
		return nil, fmt.Errorf("netmr: spill run block body: %w", err)
	}
	switch flag {
	case 0:
		if rawLen != payLen {
			return nil, fmt.Errorf("netmr: raw spill block length mismatch (%d != %d)", rawLen, payLen)
		}
		return b.pay, nil
	case 1:
		if uint64(cap(b.blk)) < rawLen {
			b.blk = make([]byte, 0, rawLen)
		}
		blk, err := lzDecompress(b.blk[:0], b.pay, int(rawLen))
		if err != nil {
			return nil, fmt.Errorf("netmr: spill run block: %w", err)
		}
		b.blk = blk
		return blk, nil
	default:
		return nil, fmt.Errorf("netmr: spill run block flag %d", flag)
	}
}

// fileTripleStream reads one spill run back sequentially. Each block
// becomes one string its triples are sliced out of, so reading a triple
// allocates nothing; the fold copies out only the keys it keeps.
type fileTripleStream struct {
	r   *spillRunReader
	blk frameReader // the current block
}

func (s *fileTripleStream) next() (spillTriple, bool, error) {
	if s.blk.off >= len(s.blk.s) {
		raw, err := s.r.block()
		if err == io.EOF {
			return spillTriple{}, false, nil
		}
		if err != nil {
			return spillTriple{}, false, err
		}
		s.blk = frameReader{s: string(raw)}
	}
	key, err := s.blk.string()
	if err != nil {
		return spillTriple{}, false, fmt.Errorf("netmr: spill run read: %w", err)
	}
	task, err := s.blk.varint()
	if err != nil {
		return spillTriple{}, false, fmt.Errorf("netmr: spill run read: %w", err)
	}
	if len(s.blk.s)-s.blk.off < 8 {
		return spillTriple{}, false, fmt.Errorf("netmr: spill run read: truncated value at byte %d", s.blk.off)
	}
	val := math.Float64frombits(u64at(s.blk.s, s.blk.off))
	s.blk.off += 8
	return spillTriple{key: key, task: int(task), val: val}, true, nil
}

// loserTree is a k-way tournament merge over sorted triple streams:
// tree[1:] are the internal nodes, each remembering the loser of its
// match, and tree[0] the overall winner, so replacing a popped head
// replays log2(k) comparisons along one leaf-to-root path instead of a
// heap's full sift — the classic structure for merging many spill runs.
type loserTree struct {
	streams []tripleStream
	tree    []int         // tree[0]: winner; tree[1:]: per-node losers
	heads   []spillTriple // current head per stream
	alive   []bool        // stream still has a head
}

// newLoserTree primes every stream and plays the initial tournament.
// Empty slots (-1) absorb the first contender unopposed, so k adjust
// passes fill the whole tree.
func newLoserTree(streams []tripleStream) (*loserTree, error) {
	k := len(streams)
	lt := &loserTree{
		streams: streams,
		tree:    make([]int, k),
		heads:   make([]spillTriple, k),
		alive:   make([]bool, k),
	}
	for i, s := range streams {
		t, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		lt.heads[i], lt.alive[i] = t, ok
	}
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for i := 0; i < k; i++ {
		winner := i
		parked := false
		for node := (i + k) / 2; node > 0; node /= 2 {
			if lt.tree[node] < 0 {
				lt.tree[node] = winner // first arrival: wait here for an opponent
				parked = true
				break
			}
			if lt.less(lt.tree[node], winner) {
				winner, lt.tree[node] = lt.tree[node], winner
			}
		}
		if !parked {
			lt.tree[0] = winner
		}
	}
	return lt, nil
}

// less orders two stream indices by their heads; an exhausted stream
// loses to everything, so the winner is always a live head while any
// remain.
func (lt *loserTree) less(a, b int) bool {
	if !lt.alive[a] {
		return false
	}
	if !lt.alive[b] {
		return true
	}
	return tripleCmp(lt.heads[a], lt.heads[b]) < 0
}

// next pops the smallest head across all streams; ok is false when every
// stream is exhausted.
func (lt *loserTree) next() (spillTriple, bool, error) {
	w := lt.tree[0]
	if w < 0 || !lt.alive[w] {
		return spillTriple{}, false, nil
	}
	out := lt.heads[w]
	t, ok, err := lt.streams[w].next()
	if err != nil {
		return spillTriple{}, false, err
	}
	lt.heads[w], lt.alive[w] = t, ok
	// Replay the refilled leaf against the recorded losers on its path.
	k := len(lt.streams)
	winner := w
	for node := (w + k) / 2; node > 0; node /= 2 {
		if lt.less(lt.tree[node], winner) {
			winner, lt.tree[node] = lt.tree[node], winner
		}
	}
	lt.tree[0] = winner
	return out, true, nil
}

// spillFolder buffers gathered task partials for one reduce task under a
// byte budget, flushing sorted runs when it is exceeded — all into one
// file under dir, back to back, each run read back through its own
// section of it. fold merges the runs and the in-memory remainder back
// into the partition's final key space. After an error the folder is
// unusable; discard still releases it.
type spillFolder struct {
	budget int64 // 0: never spill
	dir    string

	mem     int64
	inputs  []taskPartial // gathered partials not yet in a run
	triples []spillTriple // flush scratch
	blk     []byte        // flush scratch: the raw block being filled
	cbuf    []byte        // flush scratch: the block compressed
	file    *os.File      // every run, back to back; created by the first flush
	end     int64         // bytes of runs in file
	runs    []*fileTripleStream
	read    blockScratch // the runs' shared read buffers

	spillRuns    int
	spilledBytes int64         // bytes that hit disk (post-compression)
	compSaved    int64         // bytes block compression kept off disk
	flushDur     time.Duration // wall time spent writing runs (the "spill" span)
}

func newSpillFolder(budget int64, dir string) *spillFolder {
	return &spillFolder{budget: budget, dir: dir}
}

// add buffers one gathered task partial, spilling the buffer as a sorted
// run when the budget is exceeded.
func (f *spillFolder) add(task int, partial pairs) error {
	if len(partial.Keys) == 0 {
		return nil
	}
	f.inputs = append(f.inputs, taskPartial{task: task, partial: partial})
	for _, k := range partial.Keys {
		f.mem += int64(len(k)) + 8 + 16
	}
	if f.budget > 0 && f.mem > f.budget {
		return f.flush()
	}
	return nil
}

// sortTriples lays the buffered partials out as (key, task, value)
// records in f.triples, sorted by (key, task).
func (f *spillFolder) sortTriples() {
	f.triples = f.triples[:0]
	for _, in := range f.inputs {
		for i, k := range in.partial.Keys {
			f.triples = append(f.triples, spillTriple{key: k, task: in.task, val: in.partial.Vals[i]})
		}
	}
	slices.SortFunc(f.triples, tripleCmp)
}

// flush appends the buffered partials, sorted by (key, task), to the
// spill file as one block-compressed run and empties the buffer.
func (f *spillFolder) flush() error {
	flushStart := time.Now()
	defer func() { f.flushDur += time.Since(flushStart) }()
	f.sortTriples()
	if f.file == nil {
		file, err := os.CreateTemp(f.dir, "reduce-runs-*.spill")
		if err != nil {
			return fmt.Errorf("netmr: spill run create: %w", err)
		}
		f.file = file
	}
	w := bufio.NewWriter(f.file)
	var scratch [8]byte
	blk, cbuf := f.blk[:0], f.cbuf[:0]
	defer func() { f.blk, f.cbuf = blk[:0], cbuf[:0] }()
	var written, saved int64
	// emit frames one raw block: compressed when that shrinks it, raw
	// otherwise — the read path switches per block on the flag byte.
	emit := func() error {
		if len(blk) == 0 {
			return nil
		}
		flag := byte(0)
		payload := blk
		if len(blk) >= lzCompressThreshold {
			cbuf = lzCompress(cbuf[:0], blk)
			if len(cbuf) < len(blk) {
				flag = 1
				payload = cbuf
				saved += int64(len(blk) - len(cbuf))
			}
		}
		var hdr [2*binary.MaxVarintLen64 + 1]byte
		hdr[0] = flag
		n := 1 + binary.PutUvarint(hdr[1:], uint64(len(blk)))
		n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
		written += int64(n) + int64(len(payload))
		blk = blk[:0]
		return nil
	}
	for _, t := range f.triples {
		blk = binary.AppendUvarint(blk, uint64(len(t.key)))
		blk = append(blk, t.key...)
		blk = binary.AppendVarint(blk, int64(t.task))
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(t.val))
		blk = append(blk, scratch[:]...)
		if len(blk) >= spillBlockSize {
			if err := emit(); err != nil {
				return fmt.Errorf("netmr: spill run write: %w", err)
			}
		}
	}
	if err := emit(); err != nil {
		return fmt.Errorf("netmr: spill run write: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("netmr: spill run write: %w", err)
	}
	run := io.NewSectionReader(f.file, f.end, written)
	f.end += written
	f.runs = append(f.runs, &fileTripleStream{r: &spillRunReader{r: bufio.NewReader(run), buf: &f.read}})
	f.spillRuns++
	f.spilledBytes += written
	f.compSaved += saved
	// Drop every reference into the flushed partials, so the frames they
	// were decoded from can be collected: that memory is what spilling
	// buys back.
	clear(f.triples)
	f.triples = f.triples[:0]
	clear(f.inputs)
	f.inputs = f.inputs[:0]
	f.mem = 0
	return nil
}

// fold merges every spilled run and the in-memory remainder into the
// final key space, streaming the per-key fold off the loser tree, whose
// order — ascending key — the result keeps. merged reports whether disk
// runs participated (the "mergeruns" span). A key one task's partial
// repeats fails the fold (errDuplicateKey). The spill file is removed
// on return.
func (f *spillFolder) fold(job Job) (out pairs, merged bool, err error) {
	defer f.discard()
	if len(f.runs) == 0 {
		// Pure in-memory path: the reference fold over the buffered
		// partials, in ascending map-task order.
		sort.SliceStable(f.inputs, func(i, j int) bool { return f.inputs[i].task < f.inputs[j].task })
		out, err := foldTaskPartials(job, f.inputs)
		return out, false, err
	}
	f.sortTriples()
	streams := make([]tripleStream, 0, len(f.runs)+1)
	for _, run := range f.runs {
		streams = append(streams, run)
	}
	if len(f.triples) > 0 {
		streams = append(streams, &memTripleStream{triples: f.triples})
	}
	lt, err := newLoserTree(streams)
	if err != nil {
		return pairs{}, true, err
	}
	var cur spillTriple
	var curVals []float64
	finishKey := func() {
		if len(curVals) == 0 {
			return
		}
		// A run's keys are slices of its block strings: copy the key out,
		// so the result does not keep every block of every run alive.
		out.Keys = append(out.Keys, strings.Clone(cur.key))
		if job.Combine != nil {
			acc := curVals[0]
			for _, v := range curVals[1:] {
				acc = job.Combine(acc, v)
			}
			out.Vals = append(out.Vals, acc)
		} else {
			out.Vals = append(out.Vals, job.Reduce(cur.key, curVals))
		}
		curVals = curVals[:0]
	}
	for {
		t, ok, err := lt.next()
		if err != nil {
			return pairs{}, true, err
		}
		if !ok {
			break
		}
		if len(curVals) > 0 && t.key == cur.key && t.task == cur.task {
			return pairs{}, true, fmt.Errorf("netmr: map task %d's partial repeats key %q: %w", t.task, t.key, errDuplicateKey)
		}
		if len(curVals) == 0 || t.key != cur.key {
			finishKey()
		}
		cur = t
		curVals = append(curVals, t.val)
	}
	finishKey()
	return out, true, nil
}

// discard releases the spill file and the buffer.
func (f *spillFolder) discard() {
	if f.file != nil {
		name := f.file.Name()
		_ = f.file.Close()
		_ = os.Remove(name)
		f.file = nil
	}
	f.runs = nil
	f.inputs = nil
	f.triples = nil
	f.mem = 0
}

// ensureSpillDir creates (or reuses) the per-run scratch directory under
// base, falling back to the OS temp dir when base is empty.
func ensureSpillDir(base, run string) (string, error) {
	if base == "" {
		base = os.TempDir()
	}
	dir := filepath.Join(base, "netmr-spill", sanitizeRun(run))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("netmr: spill dir: %w", err)
	}
	return dir, nil
}

// sanitizeRun maps a run id ("wordcount#3") onto a path-safe directory
// name.
func sanitizeRun(run string) string {
	b := []byte(run)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
