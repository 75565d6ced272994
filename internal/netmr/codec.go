package netmr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
)

// The wire protocol: length-prefixed binary frames, one fixed layout on
// every connection — master↔worker and worker↔worker alike. The hello
// frame carries protocolVersion (protocol.go); a peer of another
// version is refused with both versions named, so nothing here has to
// tolerate a second layout. One frame is
//
//	uvarint(len(wire)) || wire
//	wire = 0x00 || body                                  (stored)
//	     | 0x01 || uvarint(len(body)) || lzCompress(body) (compressed)
//	body = type byte || varint(Version) || fields... || crc32c(body[:len(body)-4]) (4 B LE)
//
// The flag byte, type byte and Version lead the frame in every version
// of the protocol, so a hello whose remaining layout this build cannot
// decode still reveals its version (peekHello).
//
// Every field of message is encoded in a fixed order: strings as uvarint
// length + bytes, ints as varints, Partial as its key/IEEE-754 pairs in
// the order the producer emitted them. That order is a function of the
// task's inputs, never of map iteration, so frames are byte-deterministic
// and any frame round-trips exactly, key order included. Unknown type
// bytes still decode (the receiver ignores them). The CRC-32C keeps single-bit wire
// corruption detectable. It is computed over the raw body before
// compression, so it guards the decompressed payload end to end. Only
// bulk payload frames (result/fetchresult/replicate) at or
// above lzCompressThreshold are compressed, and only when the
// compressed form is actually smaller.
const maxFrameBytes = 1 << 26 // 64 MiB hard cap: larger prefixes are corruption

// lzCompressThreshold is the smallest body worth attempting to
// compress; tiny control frames cost more in flag/length overhead than
// they save.
const lzCompressThreshold = 4096

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameTypes maps message type strings to their wire bytes. 0 is
// reserved so a zeroed buffer never looks like a valid frame.
var frameTypes = map[string]byte{
	"hello":       1,
	"helloack":    2,
	"task":        3,
	"result":      4,
	"error":       5,
	"ping":        6,
	"pong":        7,
	"taskbatch":   8,
	"reducetask":  10,
	"fetch":       11,
	"fetchresult": 12,
	"mapdone":     13,
	"replicate":   14,
	"replicack":   15,
	"morelocs":    16,
}

// compressibleFrames names the bulk payload frame types the comp layer
// may compress; control frames always travel stored.
var compressibleFrames = map[string]bool{
	"result":      true,
	"fetchresult": true,
	"replicate":   true,
}

var frameNames = func() map[byte]string {
	m := make(map[byte]string, len(frameTypes))
	for name, b := range frameTypes {
		m[b] = name
	}
	return m
}()

// encBufPool recycles frame encode buffers across connections: sends are
// sequential per conn, so the pool keeps at most one warm buffer per P.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendPairs appends a partial as its count, then each key with its
// IEEE-754 value, in the partial's own order: the bytes are as
// deterministic as the producer's emission order, with no sort.
func appendPairs(b []byte, p pairs) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Keys)))
	for i, k := range p.Keys {
		b = appendString(b, k)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Vals[i]))
	}
	return b
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendLocs(b []byte, locs []fetchLoc) []byte {
	b = binary.AppendUvarint(b, uint64(len(locs)))
	for _, loc := range locs {
		b = appendString(b, loc.Addr)
		b = appendInts(b, loc.Tasks)
	}
	return b
}

// appendFrame appends the complete wire frame for m to dst.
func appendFrame(dst []byte, m *message) ([]byte, error) {
	tb, ok := frameTypes[m.Type]
	if !ok {
		return dst, fmt.Errorf("netmr: unencodable frame type %q", m.Type)
	}
	// Reserve room for the length prefix after the body is built; encode
	// the body at the end of dst and splice the prefix in front.
	bodyStart := len(dst)
	b := append(dst, tb)
	b = binary.AppendVarint(b, int64(m.Version))
	b = appendString(b, m.ID)
	b = appendString(b, m.Job)
	b = binary.AppendVarint(b, int64(m.TaskID))
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = appendStrings(b, m.Records)
	b = appendPairs(b, m.Partial)
	b = appendStrings(b, m.Jobs)
	b = appendString(b, m.Message)
	b = binary.AppendUvarint(b, uint64(len(m.Batch)))
	for _, spec := range m.Batch {
		b = appendString(b, spec.Job)
		b = binary.AppendVarint(b, int64(spec.TaskID))
		b = binary.AppendVarint(b, int64(spec.Attempt))
		b = appendStrings(b, spec.Records)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Parts)))
	for _, part := range m.Parts {
		b = binary.AppendVarint(b, int64(part.ID))
		b = appendPairs(b, part.Partial)
	}
	b = appendString(b, m.Trace)
	b = binary.AppendUvarint(b, uint64(len(m.Spans)))
	for _, s := range m.Spans {
		b = appendString(b, s.Phase)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Start))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.End))
	}
	b = appendString(b, m.Run)
	b = binary.AppendVarint(b, int64(m.Reducers))
	b = appendString(b, m.Fetch)
	b = binary.AppendVarint(b, m.Bytes)
	b = appendInts(b, m.Tasks)
	b = appendLocs(b, m.Locs)
	b = appendString(b, m.Rep)
	b = binary.AppendVarint(b, int64(m.Spills))
	b = binary.AppendVarint(b, m.Spilled)
	b = binary.AppendVarint(b, m.CompBytes)
	b = binary.AppendVarint(b, m.ShuffleMs)
	b = binary.AppendVarint(b, int64(m.Total))
	b = appendLocs(b, m.Reps)
	b = binary.AppendVarint(b, int64(m.Failovers))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[bodyStart:], crcTable))
	b = wrapCompressed(b, bodyStart, m.Type)

	bodyLen := len(b) - bodyStart
	if bodyLen > maxFrameBytes {
		return dst, fmt.Errorf("netmr: frame of %d bytes exceeds the %d limit", bodyLen, maxFrameBytes)
	}
	var prefix [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(prefix[:], uint64(bodyLen))
	b = append(b, prefix[:pn]...)                          // grow by prefix length
	copy(b[bodyStart+pn:], b[bodyStart:bodyStart+bodyLen]) // shift body right
	copy(b[bodyStart:], prefix[:pn])
	return b, nil
}

// lzBufPool recycles compression scratch buffers across sends.
var lzBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// wrapCompressed applies the comp flag layer to the raw checksummed
// body at b[bodyStart:]: bulk payload frames at or above
// lzCompressThreshold are LZ-compressed when that actually shrinks
// them, everything else travels stored behind the one-byte flag.
func wrapCompressed(b []byte, bodyStart int, typ string) []byte {
	raw := b[bodyStart:]
	if compressibleFrames[typ] && len(raw) >= lzCompressThreshold {
		bufp := lzBufPool.Get().(*[]byte)
		buf := (*bufp)[:0]
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = lzCompress(buf, raw)
		if len(buf) < len(raw)+1 {
			b = append(b[:bodyStart], buf...)
			*bufp = buf[:0]
			lzBufPool.Put(bufp)
			return b
		}
		*bufp = buf[:0]
		lzBufPool.Put(bufp)
	}
	b = append(b, 0)
	copy(b[bodyStart+1:], b[bodyStart:len(b)-1]) // shift body right one byte
	b[bodyStart] = 0
	return b
}

// unwrapCompressedBody strips the comp flag layer from a received frame
// body, returning the raw checksummed body that decodeFrame expects.
// scratch is the reusable decompression buffer (grown and returned for
// reuse); compressed reports whether the wire form was the compressed
// variant.
func unwrapCompressedBody(body, scratch []byte) (raw, scratchOut []byte, compressed bool, err error) {
	if len(body) == 0 {
		return nil, scratch, false, fmt.Errorf("netmr: empty comp frame body")
	}
	switch body[0] {
	case 0:
		return body[1:], scratch, false, nil
	case 1:
		rawLen, n := binary.Uvarint(body[1:])
		if n <= 0 || rawLen > maxFrameBytes {
			return nil, scratch, false, fmt.Errorf("netmr: bad compressed frame length prefix")
		}
		out, err := lzDecompress(scratch[:0], body[1+n:], int(rawLen))
		if err != nil {
			return nil, scratch, false, err
		}
		if uint64(len(out)) != rawLen {
			return nil, out, false, fmt.Errorf("netmr: compressed frame declared %d bytes but decompressed to %d", rawLen, len(out))
		}
		return out, out, true, nil
	default:
		return nil, scratch, false, fmt.Errorf("netmr: unknown compression flag %d", body[0])
	}
}

// frameReader is the cursor decodeFrame parses with. All strings are
// substrings of one string conversion of the body, so a decoded frame
// costs one allocation for its text regardless of field count.
type frameReader struct {
	s   string
	off int
}

// uvarint parses in place (binary.Uvarint would need a []byte copy).
func (r *frameReader) uvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := r.off; i < len(r.s); i++ {
		b := r.s[i]
		if b < 0x80 {
			if shift >= 63 && b > 1 {
				return 0, fmt.Errorf("netmr: uvarint overflow at byte %d", r.off)
			}
			r.off = i + 1
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("netmr: uvarint overflow at byte %d", r.off)
		}
	}
	return 0, fmt.Errorf("netmr: truncated uvarint at byte %d", r.off)
}

func (r *frameReader) varint() (int64, error) {
	ux, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1) // zigzag decode, as encoding/binary writes them
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

func (r *frameReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.s)-r.off) {
		return "", fmt.Errorf("netmr: string of %d bytes overruns frame", n)
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

// strings decodes a string list, appending into dst (reused between
// frames by the conn when the caller is done with the previous list).
func (r *frameReader) strings(dst []string) ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each string costs at least its length byte, so a count larger than
	// the remaining bytes is corruption, not a huge allocation.
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("netmr: string list of %d entries overruns frame", n)
	}
	if dst == nil || cap(dst) < int(n) {
		dst = make([]string, 0, n)
	} else {
		dst = dst[:0]
	}
	for i := uint64(0); i < n; i++ {
		s, err := r.string()
		if err != nil {
			return nil, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// pairs decodes one key/IEEE-754 pair list into two slices sized by its
// count (nil when empty), keeping the wire's key order — the Partial
// field's wire shape, shared with every entry of a Parts list and with
// spill sections. Freshly allocated because results outlive the
// next recv on the master. A key the list repeats is kept twice: the
// folds that consume partials reject it by name.
func (r *frameReader) pairs() (pairs, error) {
	np, err := r.uvarint()
	if err != nil {
		return pairs{}, err
	}
	if np > uint64(len(r.s)-r.off)/9 { // key length byte + 8 value bytes minimum
		return pairs{}, fmt.Errorf("netmr: partial of %d pairs overruns frame", np)
	}
	if np == 0 {
		return pairs{}, nil
	}
	out := pairs{Keys: make([]string, np), Vals: make([]float64, np)}
	for i := range out.Keys {
		k, err := r.string()
		if err != nil {
			return pairs{}, err
		}
		if len(r.s)-r.off < 8 {
			return pairs{}, fmt.Errorf("netmr: truncated partial value at byte %d", r.off)
		}
		out.Keys[i] = k
		out.Vals[i] = math.Float64frombits(u64at(r.s, r.off))
		r.off += 8
	}
	return out, nil
}

// ints decodes a varint list into a fresh slice (nil when empty).
func (r *frameReader) ints() ([]int, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least one byte, so a count larger than the
	// remaining bytes is corruption, not a huge allocation.
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("netmr: int list of %d entries overruns frame", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// locs decodes a fetchLoc list into a fresh slice (nil when empty).
func (r *frameReader) locs() ([]fetchLoc, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each loc costs at least its addr length byte plus a task count
	// byte.
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("netmr: loc list of %d entries overruns frame", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]fetchLoc, n)
	for i := range out {
		if out[i].Addr, err = r.string(); err != nil {
			return nil, err
		}
		if out[i].Tasks, err = r.ints(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// peekHello reports the Version a stored hello wire body declares, read
// from the prefix every protocol version shares — for a hello the rest
// of which does not decode.
func peekHello(wire []byte) (version int, ok bool) {
	if len(wire) < 3 || wire[0] != 0 || wire[1] != frameTypes["hello"] {
		return 0, false
	}
	v, n := binary.Varint(wire[2:])
	return int(v), n > 0
}

// decodeFrame parses one checksummed body into m, reusing m.Records' and
// m.Batch's backing arrays when the caller passes them back in. All other
// slice/map fields are freshly allocated (results outlive the next recv
// on the master). The caller strips the compression flag layer
// (unwrapCompressedBody) first; body here is always the raw checksummed
// form.
func decodeFrame(body []byte, m *message) error {
	if len(body) < 5 { // type byte + CRC
		return fmt.Errorf("netmr: frame of %d bytes is too short", len(body))
	}
	payload, sum := body[:len(body)-4], binary.LittleEndian.Uint32(body[len(body)-4:])
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return fmt.Errorf("netmr: frame checksum mismatch (got %08x, want %08x)", got, sum)
	}
	recs, batch := m.Records, m.Batch
	*m = message{}
	r := &frameReader{s: string(payload)}
	tb := r.s[0]
	r.off = 1
	if name, ok := frameNames[tb]; ok {
		m.Type = name
	} else {
		m.Type = fmt.Sprintf("?%d", tb) // unknown frames are ignored downstream
	}
	var v int64
	var err error
	if v, err = r.varint(); err != nil {
		return err
	}
	m.Version = int(v)
	if m.ID, err = r.string(); err != nil {
		return err
	}
	if m.Job, err = r.string(); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	m.TaskID = int(v)
	if v, err = r.varint(); err != nil {
		return err
	}
	m.Attempt = int(v)
	if m.Records, err = r.strings(recs); err != nil {
		return err
	}
	if len(m.Records) == 0 {
		m.Records = nil
	}
	if m.Partial, err = r.pairs(); err != nil {
		return err
	}
	if m.Jobs, err = r.strings(nil); err != nil {
		return err
	}
	if len(m.Jobs) == 0 {
		m.Jobs = nil
	}
	if m.Message, err = r.string(); err != nil {
		return err
	}
	nb, err := r.uvarint()
	if err != nil {
		return err
	}
	if nb > uint64(len(r.s)-r.off) {
		return fmt.Errorf("netmr: batch of %d specs overruns frame", nb)
	}
	if nb > 0 {
		if cap(batch) < int(nb) {
			batch = make([]taskSpec, nb)
		} else {
			batch = batch[:nb]
		}
		for i := range batch {
			spec := &batch[i]
			if spec.Job, err = r.string(); err != nil {
				return err
			}
			if v, err = r.varint(); err != nil {
				return err
			}
			spec.TaskID = int(v)
			if v, err = r.varint(); err != nil {
				return err
			}
			spec.Attempt = int(v)
			if spec.Records, err = r.strings(spec.Records); err != nil {
				return err
			}
		}
		m.Batch = batch
	}
	nparts, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each partition costs at least its id byte plus a pair count byte.
	if nparts > uint64(len(r.s)-r.off) {
		return fmt.Errorf("netmr: part list of %d partitions overruns frame", nparts)
	}
	if nparts > 0 {
		m.Parts = make([]partitionPartial, nparts)
		for i := range m.Parts {
			if v, err = r.varint(); err != nil {
				return err
			}
			m.Parts[i].ID = int(v)
			if m.Parts[i].Partial, err = r.pairs(); err != nil {
				return err
			}
		}
	}
	if m.Trace, err = r.string(); err != nil {
		return err
	}
	nspans, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each span costs at least its phase length byte plus 16 value
	// bytes, so a count larger than the remaining bytes / 17 is
	// corruption, not a huge allocation.
	if nspans > uint64(len(r.s)-r.off)/17 {
		return fmt.Errorf("netmr: span list of %d entries overruns frame", nspans)
	}
	if nspans > 0 {
		m.Spans = make([]spanSummary, nspans)
		for i := range m.Spans {
			if m.Spans[i].Phase, err = r.string(); err != nil {
				return err
			}
			if len(r.s)-r.off < 16 {
				return fmt.Errorf("netmr: truncated span interval at byte %d", r.off)
			}
			m.Spans[i].Start = math.Float64frombits(u64at(r.s, r.off))
			m.Spans[i].End = math.Float64frombits(u64at(r.s, r.off+8))
			r.off += 16
		}
	}
	if m.Run, err = r.string(); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	m.Reducers = int(v)
	if m.Fetch, err = r.string(); err != nil {
		return err
	}
	if m.Bytes, err = r.varint(); err != nil {
		return err
	}
	if m.Tasks, err = r.ints(); err != nil {
		return err
	}
	if m.Locs, err = r.locs(); err != nil {
		return err
	}
	if m.Rep, err = r.string(); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	m.Spills = int(v)
	if m.Spilled, err = r.varint(); err != nil {
		return err
	}
	if m.CompBytes, err = r.varint(); err != nil {
		return err
	}
	if m.ShuffleMs, err = r.varint(); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	m.Total = int(v)
	if m.Reps, err = r.locs(); err != nil {
		return err
	}
	if v, err = r.varint(); err != nil {
		return err
	}
	m.Failovers = int(v)
	if r.off != len(r.s) {
		return fmt.Errorf("netmr: %d trailing bytes after frame", len(r.s)-r.off)
	}
	return nil
}

// u64at reads a little-endian uint64 from s without a []byte copy.
func u64at(s string, i int) uint64 {
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}
