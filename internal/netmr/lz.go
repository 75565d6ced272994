package netmr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Dependency-free LZ77 block codec for frame compression, in the LZ4
// block format shape: a stream of sequences, each a token byte (literal
// length in the high nibble, match length − 4 in the low nibble, 15
// meaning "extended by 255-run bytes"), the literals, a 2-byte
// little-endian match offset, and the match-length extension. The final
// sequence is literals only. Intermediate partials are key/value pair
// lists in emission order whose keys repeat words and byte patterns
// across entries, so even this greedy matcher cuts fetchresult frames to
// well under half; the point is shuffle bytes off the wire without a cgo
// or module dependency.

const (
	// lzMinMatch is the shortest match worth encoding (token semantics:
	// low nibble stores matchLen − lzMinMatch).
	lzMinMatch = 4
	// lzMaxOffset bounds the back-reference distance to what 2 bytes
	// address.
	lzMaxOffset = 65535
	// lzHashLog sizes the match table: 1<<lzHashLog heads.
	lzHashLog = 14
	// lzTailLiterals: the last bytes of the input are always emitted as
	// literals (matching LZ4's end-of-block rule), which keeps the
	// decompressor's copy loops simple and safe.
	lzTailLiterals = 12
)

// lzHash maps a 4-byte sequence to a table slot.
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashLog)
}

func lzLoad32(src []byte, i int) uint32 {
	return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
}

// lzMatchLen extends a match of n bytes between the windows at cand
// and si (cand < si) up to max bytes, comparing eight bytes at a time:
// the first differing bit of the XOR names the first differing byte.
func lzMatchLen(src []byte, cand, si, n, max int) int {
	for n+8 <= max {
		if x := binary.LittleEndian.Uint64(src[cand+n:]) ^ binary.LittleEndian.Uint64(src[si+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
		n += 8
	}
	for n < max && src[cand+n] == src[si+n] {
		n++
	}
	return n
}

// lzCompress appends a compressed copy of src to dst and returns the
// result. The output decompresses to exactly src via lzDecompress; it is
// not guaranteed to be shorter than src (callers compare and keep the
// raw bytes when compression does not pay).
func lzCompress(dst, src []byte) []byte {
	var table [1 << lzHashLog]int32 // head positions + 1 (0 = empty)
	anchor := 0                     // start of pending literals
	si := 0
	limit := len(src) - lzTailLiterals
	for si < limit {
		v := lzLoad32(src, si)
		h := lzHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(si + 1)
		if cand < 0 || si-cand > lzMaxOffset || lzLoad32(src, cand) != v {
			si++
			continue
		}
		// Extend the match forward; never into the literal tail.
		maxLen := len(src) - lzTailLiterals + (lzTailLiterals - 5) - si // keep 5 literal bytes minimum
		if maxLen > len(src)-si {
			maxLen = len(src) - si
		}
		matchLen := lzMatchLen(src, cand, si, lzMinMatch, maxLen)
		dst = lzSequence(dst, src[anchor:si], matchLen, si-cand)
		si += matchLen
		anchor = si
	}
	return lzSequence(dst, src[anchor:], 0, 0)
}

// lzSequence appends one sequence: the token, the literals, and — unless
// matchLen is 0, the final literal-only sequence — the match offset and
// the match-length extension.
func lzSequence(dst, lits []byte, matchLen, offset int) []byte {
	litLen := len(lits)
	token := min(litLen, 15) << 4
	ml := 0
	if matchLen > 0 {
		ml = matchLen - lzMinMatch
		token |= min(ml, 15)
	}
	dst = append(dst, byte(token))
	if litLen >= 15 {
		dst = lzAppendLen(dst, litLen-15)
	}
	dst = append(dst, lits...)
	if matchLen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lzAppendLen(dst, ml-15)
	}
	return dst
}

// lzAppendLen appends a length extension: 255-bytes while n ≥ 255, then
// the remainder.
func lzAppendLen(dst []byte, n int) []byte {
	for ; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

// lzReadLen reads the extension of a token nibble n at src[si:] (none
// unless n is 15), returning the full length and the index past it.
func lzReadLen(src []byte, si, n int) (int, int, error) {
	if n != 15 {
		return n, si, nil
	}
	for {
		if si >= len(src) {
			return 0, si, fmt.Errorf("netmr: lz: truncated length run at byte %d", si)
		}
		b := src[si]
		si++
		n += int(b)
		if n < 0 {
			return 0, si, fmt.Errorf("netmr: lz: length overflow at byte %d", si)
		}
		if b != 255 {
			return n, si, nil
		}
	}
}

// lzDecompress appends the decompressed form of src to dst and returns
// it, strictly bounds-checked: a malformed or truncated block — or one
// that would expand past max bytes — errors instead of reading or
// writing out of range. dst should be empty (its existing bytes are not
// part of the window).
func lzDecompress(dst, src []byte, max int) ([]byte, error) {
	base := len(dst)
	si := 0
	for si < len(src) {
		token := src[si]
		si++
		litLen, si2, err := lzReadLen(src, si, int(token>>4))
		if err != nil {
			return nil, err
		}
		si = si2
		if litLen > len(src)-si {
			return nil, fmt.Errorf("netmr: lz: %d literals overrun input at byte %d", litLen, si)
		}
		if len(dst)-base+litLen > max {
			return nil, fmt.Errorf("netmr: lz: output exceeds the declared %d bytes", max)
		}
		dst = append(dst, src[si:si+litLen]...)
		si += litLen
		if si == len(src) {
			return dst, nil // final sequence carries no match
		}
		if len(src)-si < 2 {
			return nil, fmt.Errorf("netmr: lz: truncated offset at byte %d", si)
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > len(dst)-base {
			return nil, fmt.Errorf("netmr: lz: offset %d outside the %d-byte window", offset, len(dst)-base)
		}
		matchLen, si2, err := lzReadLen(src, si, int(token&0x0f))
		if err != nil {
			return nil, err
		}
		si = si2
		matchLen += lzMinMatch
		if len(dst)-base+matchLen > max {
			return nil, fmt.Errorf("netmr: lz: output exceeds the declared %d bytes", max)
		}
		from := len(dst) - offset
		if offset >= matchLen {
			dst = append(dst, dst[from:from+matchLen]...)
			continue
		}
		// Byte-at-a-time copy: overlapping matches (offset < matchLen)
		// must re-read bytes this very copy produced.
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	return nil, fmt.Errorf("netmr: lz: input ended inside a sequence")
}
