package netmr

import (
	"math/rand"
	"testing"
)

// bigramPairs builds a partial shaped like the bigram workload's: n
// distinct "word word" keys over a 1000-word vocabulary with small
// counts, in a fixed pseudo-random emission order.
func bigramPairs(n int) pairs {
	rng := rand.New(rand.NewSource(int64(n)))
	vocab := make([]string, 1000)
	for i := range vocab {
		w := make([]byte, 3+rng.Intn(6))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(w)
	}
	seen := make(map[string]bool, n)
	p := pairs{Keys: make([]string, 0, n), Vals: make([]float64, 0, n)}
	for len(p.Keys) < n {
		k := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		if seen[k] {
			continue
		}
		seen[k] = true
		p.Keys = append(p.Keys, k)
		p.Vals = append(p.Vals, float64(1+rng.Intn(4)))
	}
	return p
}

var codecSink pairs

// BenchmarkCodecPairs measures the wire codec of flat partials on its
// own: encoding (appendPairs) and decoding (frameReader.pairs) of one
// bigram-shaped partition (~14k keys, what one map task ships per
// reduce partition) and one bigram-shaped reduce result (~181k keys).
// MB/s is of the encoded pair list.
func BenchmarkCodecPairs(b *testing.B) {
	for _, c := range []struct {
		name string
		keys int
	}{{"partition", 14000}, {"result", 181000}} {
		p := bigramPairs(c.keys)
		wire := appendPairs(nil, p)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			buf := make([]byte, 0, len(wire))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendPairs(buf[:0], p)
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			s := string(wire)
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := frameReader{s: s}
				out, err := r.pairs()
				if err != nil {
					b.Fatal(err)
				}
				codecSink = out
			}
		})
	}
}
