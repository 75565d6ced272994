package netmr

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// codecMessages is a property corpus covering every field combination
// the protocol produces, plus adversarial shapes (empty strings, empty
// slices, negative ints, huge keys).
func codecMessages() []message {
	return []message{
		{Type: "ping"},
		{Type: "pong"},
		{Type: "hello", ID: "127.0.0.1:5555", Jobs: []string{"a", "b"}, Version: protocolVersion},
		{Type: "helloack"},
		{Type: "helloack", Reducers: 8},
		{Type: "task", Job: "wordcount", TaskID: 3, Attempt: 1, Records: []string{"the quick", "brown fox", ""}},
		{Type: "task", Job: "", TaskID: -7, Attempt: 0, Records: []string{strings.Repeat("x", 4096)}},
		{Type: "result", TaskID: 12, Attempt: 2, Partial: pairsOf(map[string]float64{
			"alpha": 1, "beta": -2.5, "": 3.25, "πκλ": 1e-300, "big": math.MaxFloat64,
		})},
		{Type: "error", TaskID: 9, Message: `unknown job "nope"`},
		{Type: "taskbatch", Batch: []taskSpec{
			{Job: "wc", TaskID: 0, Records: []string{"r0"}},
			{Job: "wc", TaskID: 5, Attempt: 2, Records: nil},
			{Job: "other", TaskID: -1, Records: []string{"a", "b", "c"}},
		}},
		{Type: "mapdone", TaskID: 7, Attempt: 1, Run: "wc#1", Parts: []partitionPartial{
			{ID: 0, Partial: pairsOf(map[string]float64{"alpha": 2, "": -1})},
			{ID: 3, Partial: pairsOf(map[string]float64{"πκλ": 1e-300})},
		}},
		{Type: "mapdone", TaskID: -2, Parts: []partitionPartial{
			{ID: 1, Partial: pairs{}},
		}},
		{Type: "task", Job: "wc", TaskID: 1, Records: []string{"traced"}, Trace: "wc-3"},
		{Type: "result", TaskID: 4, Attempt: 1, Partial: pairsOf(map[string]float64{"k": 2}), Trace: "wc-3", Spans: []spanSummary{
			{Phase: "decode", Start: 0, End: 0.001},
			{Phase: "map", Start: 0.001, End: 0.25},
			{Phase: "", Start: -1.5, End: math.MaxFloat64},
		}},
		{Type: "mapdone", TaskID: 7, Trace: "", Spans: []spanSummary{{Phase: "encode", Start: 1, End: 1}}, Parts: []partitionPartial{
			{ID: 0, Partial: pairsOf(map[string]float64{"a": 1})},
		}},
		{Type: "hello", ID: "127.0.0.1:5556", Jobs: []string{"wc"}, Version: -1, Fetch: "127.0.0.1:7001"},
		{Type: "helloack", Reducers: 4, ShuffleMs: 15000},
		{Type: "task", Job: "wc", TaskID: 2, Records: []string{"persist me"}, Run: "wc#1"},
		{Type: "mapdone", TaskID: 2, Attempt: 1, Run: "wc#1"},
		{Type: "reducetask", Job: "wc", TaskID: 1, Attempt: 0, Run: "wc#1",
			Locs: []fetchLoc{
				{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}},
				{Addr: "127.0.0.1:7002", Tasks: []int{1}},
				{Addr: "", Tasks: nil},
			},
			Parts: []partitionPartial{{ID: 3, Partial: pairsOf(map[string]float64{"inline": 1})}}},
		{Type: "fetch", Run: "wc#1", TaskID: 0, Tasks: []int{0, 1, 2, -5}},
		{Type: "fetchresult", TaskID: 0, Parts: []partitionPartial{
			{ID: 0, Partial: pairsOf(map[string]float64{"a": 1})},
			{ID: 2, Partial: pairs{}},
		}},
		{Type: "result", TaskID: 1, Attempt: 2, Partial: pairsOf(map[string]float64{"folded": 9}), Bytes: 123456789},
		{Type: "reducetask", Job: "wc", TaskID: 0, Run: "wc#2",
			Locs:  []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0}}},
			Reps:  []fetchLoc{{Addr: "127.0.0.1:7003", Tasks: []int{0}}, {Addr: "", Tasks: nil}},
			Total: 8},
		{Type: "morelocs", Run: "wc#2", TaskID: 3,
			Locs:  []fetchLoc{{Addr: "127.0.0.1:7002", Tasks: []int{5}}},
			Reps:  []fetchLoc{{Addr: "127.0.0.1:7004", Tasks: []int{5}}},
			Parts: []partitionPartial{{ID: 6, Partial: pairs{}}}},
		{Type: "morelocs", Run: "wc#2", TaskID: 1, Message: "abort"},
		{Type: "result", TaskID: 2, Attempt: 1, Partial: pairsOf(map[string]float64{"f": 1}), Bytes: 77, Failovers: 3},
	}
}

func encodeBinary(t testing.TB, m message) []byte {
	t.Helper()
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatalf("appendFrame(%+v): %v", m, err)
	}
	return frame
}

// decodeWire decodes one wire body (length prefix stripped) the way recv
// does: strip the compression flag layer, then parse the checksummed
// body.
func decodeWire(wire []byte, m *message) error {
	raw, _, _, err := unwrapCompressedBody(wire, nil)
	if err != nil {
		return err
	}
	return decodeFrame(raw, m)
}

// frameBody strips the uvarint length prefix the way recv does.
func frameBody(t testing.TB, frame []byte) []byte {
	t.Helper()
	r := bufio.NewReader(strings.NewReader(string(frame)))
	n, err := readUvarintLen(r)
	if err != nil {
		t.Fatalf("length prefix: %v", err)
	}
	return frame[len(frame)-n:]
}

func decodeBinary(t *testing.T, frame []byte) message {
	t.Helper()
	var m message
	if err := decodeWire(frameBody(t, frame), &m); err != nil {
		t.Fatalf("decodeWire: %v", err)
	}
	return m
}

func readUvarintLen(r *bufio.Reader) (int, error) {
	var x uint64
	var s uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			return int(x | uint64(b)<<s), nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// normalize maps empty slices and partials onto the decoder's nil
// convention so an input message and its round trip can be DeepEqual'd.
func normalize(m message) message {
	if len(m.Records) == 0 {
		m.Records = nil
	}
	if len(m.Partial.Keys) == 0 {
		m.Partial = pairs{}
	}
	if len(m.Jobs) == 0 {
		m.Jobs = nil
	}
	if len(m.Batch) == 0 {
		m.Batch = nil
	}
	for i := range m.Batch {
		if len(m.Batch[i].Records) == 0 {
			m.Batch[i].Records = nil
		}
	}
	if len(m.Parts) == 0 {
		m.Parts = nil
	}
	for i := range m.Parts {
		if len(m.Parts[i].Partial.Keys) == 0 {
			m.Parts[i].Partial = pairs{}
		}
	}
	if len(m.Spans) == 0 {
		m.Spans = nil
	}
	if len(m.Tasks) == 0 {
		m.Tasks = nil
	}
	if len(m.Locs) == 0 {
		m.Locs = nil
	}
	for i := range m.Locs {
		if len(m.Locs[i].Tasks) == 0 {
			m.Locs[i].Tasks = nil
		}
	}
	if len(m.Reps) == 0 {
		m.Reps = nil
	}
	for i := range m.Reps {
		if len(m.Reps[i].Tasks) == 0 {
			m.Reps[i].Tasks = nil
		}
	}
	return m
}

// TestBinaryCodecNonFiniteValues: NaN/±Inf values must round-trip
// bit-exactly.
func TestBinaryCodecNonFiniteValues(t *testing.T) {
	m := message{Type: "result", Partial: pairsOf(map[string]float64{
		"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1),
	})}
	got := decodeBinary(t, encodeBinary(t, m))
	if !reflect.DeepEqual(got.Partial.Keys, m.Partial.Keys) {
		t.Fatalf("keys %q, want %q", got.Partial.Keys, m.Partial.Keys)
	}
	for i, want := range m.Partial.Vals {
		if math.Float64bits(got.Partial.Vals[i]) != math.Float64bits(want) {
			t.Errorf("Partial[%q] = %x, want %x", m.Partial.Keys[i], math.Float64bits(got.Partial.Vals[i]), math.Float64bits(want))
		}
	}
}

// TestBinaryCodecBufferReuse is the round-trip property test: it drives
// one conn scratch through every corpus message, proving each decodes to
// exactly its input and that reuse does not leak one frame's fields into
// the next.
func TestBinaryCodecBufferReuse(t *testing.T) {
	var m message
	for i, in := range codecMessages() {
		frame := encodeBinary(t, in)
		if err := decodeWire(frameBody(t, frame), &m); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(in)) {
			t.Errorf("reused-scratch decode %d diverged:\n  in: %+v\n out: %+v", i, in, m)
		}
	}
}

// TestDecodeFrameRejectsCorruption: every single-bit flip of a valid
// wire body must be rejected — the CRC's whole job, with the flag byte
// guarded by the flag check.
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	m := message{Type: "result", TaskID: 4, Partial: pairsOf(map[string]float64{"k": 2})}
	body := frameBody(t, encodeBinary(t, m))
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), body...)
			mut[i] ^= 1 << bit
			var out message
			if err := decodeWire(mut, &out); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// Truncations must be rejected too.
	for i := 0; i < len(body); i++ {
		var out message
		if err := decodeWire(body[:i], &out); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
	}
}

// fuzzSeedGroup is one family of decode seed bodies and the fuzz
// target whose committed corpus (testdata/fuzz/<target>/seed-NNN)
// TestWriteFuzzCorpus writes it under.
type fuzzSeedGroup struct {
	target string
	bodies [][]byte
}

// fuzzSeedGroups are the wire bodies the decode fuzz targets start from:
// every codecMessages frame, then the reduce, inline-parts mapdone, span
// and compression shapes — each valid, truncated and bit-flipped.
func fuzzSeedGroups(t testing.TB) []fuzzSeedGroup {
	half := func(n int) int { return n / 2 }
	twoThirds := func(n int) int { return n * 2 / 3 }
	group := func(target string, ms []message, cut func(int) int) fuzzSeedGroup {
		g := fuzzSeedGroup{target: target}
		for _, m := range ms {
			b := frameBody(t, encodeBinary(t, m))
			mut := append([]byte(nil), b...)
			mut[4] ^= 0x40
			g.bodies = append(g.bodies, b, b[:cut(len(b))], mut)
		}
		return g
	}
	var inlineParts, spans []message
	for _, m := range codecMessages() {
		switch {
		case m.Trace != "" || len(m.Spans) > 0:
			spans = append(spans, m)
		case m.Type == "mapdone" && len(m.Parts) > 0:
			inlineParts = append(inlineParts, m)
		}
	}
	inlineParts = append(inlineParts, inlinePartsFrameSeeds()...)
	spans = append(spans, spanFrameSeeds()...)
	return []fuzzSeedGroup{
		group("FuzzDecodeFrame", codecMessages(), half),
		group("FuzzDecodeReduceFrame", reduceFrameSeeds(), twoThirds),
		group("FuzzDecodePartitionedResult", inlineParts, twoThirds),
		group("FuzzDecodeSpanSummary", spans, twoThirds),
		group("FuzzDecodeCompressedFrame", compFrameSeeds(), half),
	}
}

// fuzzReceivePath feeds the receive path — flag unwrap, decompression,
// CRC, layout decode — arbitrary wire bodies, seeded from the bodies of
// the named groups: it must error or decode, never panic or
// over-allocate, and a body that decodes must re-encode to a frame that
// decodes and re-encodes to the identical bytes (so no field is lost or
// altered, NaN payloads included). Every decode fuzz target runs this one
// property; they differ only in the frame shapes they start from.
func fuzzReceivePath(f *testing.F, targets ...string) {
	for _, g := range fuzzSeedGroups(f) {
		if !slices.Contains(targets, g.target) {
			continue
		}
		for _, b := range g.bodies {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		raw, _, _, err := unwrapCompressedBody(wire, nil)
		if err != nil {
			return
		}
		var m message
		if err := decodeFrame(raw, &m); err != nil {
			return
		}
		// Every decoded string and list is carved out of the body, so
		// none can outgrow it.
		for _, loc := range append(append([]fetchLoc(nil), m.Locs...), m.Reps...) {
			if len(loc.Addr) > len(raw) || len(loc.Tasks) > len(raw) {
				t.Fatalf("loc of %d bytes / %d tasks from a %d-byte body", len(loc.Addr), len(loc.Tasks), len(raw))
			}
		}
		if len(m.Tasks) > len(raw) || len(m.Spans) > len(raw) {
			t.Fatalf("%d task ids / %d spans from a %d-byte body", len(m.Tasks), len(m.Spans), len(raw))
		}
		for _, s := range m.Spans {
			if len(s.Phase) > len(raw) {
				t.Fatalf("span phase of %d bytes from a %d-byte body", len(s.Phase), len(raw))
			}
		}
		if _, ok := frameTypes[m.Type]; !ok {
			return // unknown type placeholder: the receiver ignores it
		}
		frame, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		var again message
		if err := decodeWire(frameBody(t, frame), &again); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		frame2, err := appendFrame(nil, &again)
		if err != nil {
			t.Fatalf("round-tripped frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("frame round trip lossy:\n in: %+v\nout: %+v", m, again)
		}
	})
}

// FuzzDecodeFrame runs the receive-path property from every seed family,
// codecMessages first, so one fuzzing burst starts from all frame shapes.
func FuzzDecodeFrame(f *testing.F) {
	var all []string
	for _, g := range fuzzSeedGroups(f) {
		all = append(all, g.target)
	}
	fuzzReceivePath(f, all...)
}

// FuzzDecodeReduceFrame runs the receive-path property from the
// reduce/fetch shapes (Run/Reducers/Fetch/Bytes/Tasks/Locs).
func FuzzDecodeReduceFrame(f *testing.F) { fuzzReceivePath(f, "FuzzDecodeReduceFrame") }

// FuzzDecodePartitionedResult runs the receive-path property from the
// partition-split shapes: mapdone frames carrying a map output inline.
func FuzzDecodePartitionedResult(f *testing.F) {
	fuzzReceivePath(f, "FuzzDecodePartitionedResult")
}

// FuzzDecodeSpanSummary runs the receive-path property from traced
// shapes (trace IDs and span summaries).
func FuzzDecodeSpanSummary(f *testing.F) { fuzzReceivePath(f, "FuzzDecodeSpanSummary") }

// FuzzDecodeCompressedFrame runs the receive-path property from frames
// large and repetitive enough to take the compression flag layer.
func FuzzDecodeCompressedFrame(f *testing.F) { fuzzReceivePath(f, "FuzzDecodeCompressedFrame") }

// TestRegistryNamesSorted: hello and health documents must not leak map
// iteration order.
func TestRegistryNamesSorted(t *testing.T) {
	jobs := []Job{}
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		j := wordCountJob()
		j.Name = name
		jobs = append(jobs, j)
	}
	r, err := NewRegistry(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	for i := 0; i < 50; i++ {
		got := r.Names()
		if !sort.StringsAreSorted(got) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Names() = %v, want sorted %v", got, want)
		}
	}
}

// TestSendClearsStaleWriteDeadline: a one-off timed send must not poison
// later untimed sends (recv already cleared its read deadline; send now
// mirrors it).
func TestSendClearsStaleWriteDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := newConn(a)

	// Keep the far end drained so sends complete.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()

	// A timed send that succeeds leaves its deadline armed on the socket.
	if err := c.send(message{Type: "ping"}, 30*time.Millisecond); err != nil {
		t.Fatalf("timed send: %v", err)
	}
	// Once that deadline expires, an untimed send must still work: send
	// has to clear the stale deadline, as recv always did.
	time.Sleep(50 * time.Millisecond)
	if err := c.send(message{Type: "ping"}, 0); err != nil {
		t.Fatalf("untimed send after a timed one failed: %v", err)
	}
}

// TestBatchedDispatch packs several shards per frame and checks the
// per-shard accounting still adds up.
func TestBatchedDispatch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 30 * time.Second, MaxTaskBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < 2; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 300)
	got, stats, err := master.Run(context.Background(), "wordcount", lines, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 16 {
		t.Errorf("Completed = %d, want 16", stats.Completed)
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total != float64(300*8) {
		t.Errorf("total words %g, want %d", total, 300*8)
	}
}

// TestCombineMatchesReduce: the streaming-combiner path must produce
// exactly the buffered path's output.
func TestCombineMatchesReduce(t *testing.T) {
	lines := testLines(t, 250)
	plain := wordCountJob()
	combined := wordCountJob()
	combined.Combine = func(acc, v float64) float64 { return acc + v }

	a := runShard(plain, lines, newShardScratch())
	b := runShard(combined, lines, newShardScratch())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("combiner path diverged from buffered path")
	}
}

// TestRunShardPreservesValueOrder: the arena grouping must hand Reduce
// each key's values in emission order, like the per-key slices did.
func TestRunShardPreservesValueOrder(t *testing.T) {
	j := Job{
		Name: "ordered",
		Map: func(record string, emit func(string, float64)) {
			for _, f := range strings.Fields(record) {
				kv := strings.SplitN(f, "=", 2)
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					panic(err)
				}
				emit(kv[0], v)
			}
		},
		// Positionally encode the values: any reordering changes the sum.
		Reduce: func(_ string, values []float64) float64 {
			out := 0.0
			for i, v := range values {
				out += v * math.Pow(10, float64(i))
			}
			return out
		},
	}
	records := []string{"a=1 b=9 a=2", "b=8 a=3 c=5"}
	got := runShard(j, records, newShardScratch())
	want := pairs{Keys: []string{"a", "b", "c"}, Vals: []float64{1 + 2*10 + 3*100, 9 + 8*10, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("runShard = %v, want %v", got, want)
	}
}
