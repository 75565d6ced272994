package netmr

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// compFrameSeeds are the out-of-core wire shapes (replication, spill
// accounting, and a payload big enough to actually compress) the
// fuzzer and the committed corpus start from.
func compFrameSeeds() []message {
	big := map[string]float64{}
	for i := 0; i < 600; i++ {
		big["the-quick-brown-fox-"+strings.Repeat("x", i%7)+string(rune('a'+i%26))] = float64(i)
	}
	return []message{
		{Type: "task", Job: "wc", TaskID: 3, Records: []string{"a b", "b c"},
			Run: "wc#1", Rep: "127.0.0.1:7009"},
		{Type: "mapdone", TaskID: 3, Attempt: 1, Run: "wc#1",
			Rep: "127.0.0.1:7009", Spills: 2, Spilled: 4096},
		{Type: "mapdone", TaskID: 4, Run: "wc#1",
			Parts: []partitionPartial{{ID: 0, Partial: pairsOf(map[string]float64{"inline": 1})}}},
		{Type: "reducetask", Job: "wc", TaskID: 1, Run: "wc#1",
			Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}}},
			Reps: []fetchLoc{{Addr: "127.0.0.1:7002", Tasks: []int{0, 2}}}},
		{Type: "replicate", Run: "wc#1", TaskID: 2, Reducers: 4,
			Parts: []partitionPartial{
				{ID: 0, Partial: pairsOf(map[string]float64{"a": 1})},
				{ID: 3, Partial: pairs{}},
			}},
		{Type: "replicack", TaskID: 2},
		{Type: "result", TaskID: 1, Attempt: 1, Partial: pairsOf(map[string]float64{"folded": 9}),
			Bytes: 1 << 20, CompBytes: 512, Spills: 1, Spilled: 2048},
		{Type: "result", TaskID: 0, Partial: pairsOf(big)},
		{Type: "helloack", Reducers: 4, ShuffleMs: 15000},
	}
}

// lzRef builds the deterministic test payloads: repetitive text, sorted
// key/value-like runs, and LCG pseudo-random (incompressible) bytes.
func lzPayloads() map[string][]byte {
	rng := uint32(0x9e3779b9)
	random := make([]byte, 9000)
	for i := range random {
		rng = rng*1664525 + 1013904223
		random[i] = byte(rng >> 24)
	}
	keyish := []byte{}
	for i := 0; i < 500; i++ {
		keyish = append(keyish, []byte("word-prefix-shared-")...)
		keyish = append(keyish, byte('a'+i%26), byte('0'+i%10))
	}
	return map[string][]byte{
		"empty":        {},
		"tiny":         []byte("abc"),
		"boundary-12":  []byte("0123456789ab"), // exactly the literal tail
		"boundary-13":  []byte("0123456789abc"),
		"repetitive":   bytes.Repeat([]byte("the quick brown fox "), 400),
		"keyish":       keyish,
		"random":       random,
		"one-byte-x8k": bytes.Repeat([]byte{0x7f}, 8192),
	}
}

// TestLZRoundTrip: every payload must decompress to exactly itself, and
// the repetitive ones must actually shrink (that is the codec's reason
// to exist).
func TestLZRoundTrip(t *testing.T) {
	for name, src := range lzPayloads() {
		comp := lzCompress(nil, src)
		got, err := lzDecompress(nil, comp, len(src))
		if err != nil {
			t.Errorf("%s: decompress: %v", name, err)
			continue
		}
		if !bytes.Equal(got, src) {
			t.Errorf("%s: round trip diverged (%d bytes in, %d out)", name, len(src), len(got))
		}
		if (name == "repetitive" || name == "one-byte-x8k" || name == "keyish") && len(comp) >= len(src) {
			t.Errorf("%s: compressible payload grew: %d -> %d bytes", name, len(src), len(comp))
		}
	}
}

// TestLZDecompressRejectsMalformed pins the decompressor's bounds
// discipline: truncation, rogue offsets and over-declared output sizes
// must error, never read or write out of range.
func TestLZDecompressRejectsMalformed(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 200)
	comp := lzCompress(nil, src)

	for cut := 1; cut < len(comp); cut += 7 {
		if out, err := lzDecompress(nil, comp[:cut], len(src)); err == nil && !bytes.Equal(out, src[:len(out)]) {
			// A clean literal-boundary cut legitimately yields a prefix;
			// anything else must error.
			t.Errorf("truncation at %d returned %d non-prefix bytes", cut, len(out))
		}
	}
	// Output larger than max must be refused.
	if _, err := lzDecompress(nil, comp, len(src)-1); err == nil {
		t.Error("output exceeding the declared max accepted")
	}
	// A match offset pointing before the window start.
	bad := []byte{0x14, 'a', 0xff, 0xff} // 1 literal, then a match at offset 65535
	if _, err := lzDecompress(nil, bad, 100); err == nil {
		t.Error("offset outside the window accepted")
	}
	// A zero offset is never valid.
	bad = []byte{0x14, 'a', 0x00, 0x00}
	if _, err := lzDecompress(nil, bad, 100); err == nil {
		t.Error("zero offset accepted")
	}
	// Truncated length run: token promises an extension that never comes.
	if _, err := lzDecompress(nil, []byte{0xf0}, 10000); err == nil {
		t.Error("truncated literal-length run accepted")
	}
}

// TestCompFrameWireForms pins the flag layer itself: a small frame
// travels stored (flag 0, one byte of overhead), a large compressible
// result frame travels compressed (flag 1) and strictly smaller than its
// raw body, and both unwrap back to the identical checksummed body.
func TestCompFrameWireForms(t *testing.T) {
	small := message{Type: "ping"}
	frame, err := appendFrame(nil, &small)
	if err != nil {
		t.Fatal(err)
	}
	body := frameBody(t, frame)
	if body[0] != 0 {
		t.Fatalf("small frame flag = %d, want 0 (stored)", body[0])
	}
	raw, _, compressed, err := unwrapCompressedBody(body, nil)
	if err != nil || compressed {
		t.Fatalf("stored unwrap = (compressed=%v, %v)", compressed, err)
	}
	var back message
	if err := decodeFrame(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Type != "ping" {
		t.Fatalf("stored round trip decoded %q", back.Type)
	}

	big := map[string]float64{}
	for i := 0; i < 2000; i++ {
		big["shared-key-prefix-"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+i%7))] = float64(i % 3)
	}
	large := message{Type: "result", TaskID: 1, Partial: pairsOf(big)}
	compFrame, err := appendFrame(nil, &large)
	if err != nil {
		t.Fatal(err)
	}
	compBody := frameBody(t, compFrame)
	if compBody[0] != 1 {
		t.Fatalf("large result frame flag = %d, want 1 (compressed)", compBody[0])
	}
	unwrapped, _, compressed, err := unwrapCompressedBody(compBody, nil)
	if err != nil || !compressed {
		t.Fatalf("compressed unwrap = (compressed=%v, %v)", compressed, err)
	}
	if len(compBody) >= len(unwrapped) {
		t.Fatalf("compressed body %d bytes, raw %d — no wire saving", len(compBody), len(unwrapped))
	}
	var again message
	if err := decodeFrame(unwrapped, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Partial, large.Partial) {
		t.Fatal("compressed result frame round trip lossy")
	}
}

// TestCompressedCluster is the compression e2e: a cluster with inputs
// heavy enough that fetchresult/result frames cross the compression
// threshold must produce the reference output and report wire savings.
func TestCompressedCluster(t *testing.T) {
	const workers, shards, R = 3, 6, 3
	master, _ := startReduceCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second, JobTimeout: 60 * time.Second, Reducers: R,
	}, workers)

	rng := rand.New(rand.NewSource(7))
	lines := make([]string, 1200)
	for i := range lines {
		words := make([]string, 12)
		for j := range words {
			words[j] = "compressible-word-" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		}
		lines[i] = strings.Join(words, " ")
	}
	got, stats, err := master.Run(context.Background(), "wordcount", lines, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := mapOf(t, runShard(wordCountJob(), lines, newShardScratch()))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compressed cluster result diverged from reference")
	}
	if stats.CompressedBytes <= 0 {
		t.Errorf("CompressedBytes = %d, want > 0 (frames above the threshold must compress)", stats.CompressedBytes)
	}
	if stats.ShuffleBytes <= 0 {
		t.Errorf("ShuffleBytes = %d, want > 0", stats.ShuffleBytes)
	}
}
