package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one interval the benchmark spent inside a public call of the
// program under test. Spans of one job share Job; set-up spans have
// Job −1. Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the log's epoch
	End    float64 `json:"end"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// log records nothing, which is how untraced runs stay untraced. It is
// used from the load loop's goroutine only.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// open starts a span and returns its ID.
func (l *spanLog) open(name string, job, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Job: job, Name: name,
		Start: time.Since(l.epoch).Seconds(),
	})
	return len(l.spans)
}

// close ends the span and returns it.
func (l *spanLog) close(id int) span {
	if l == nil || id == 0 {
		return span{}
	}
	sp := &l.spans[id-1]
	sp.End = time.Since(l.epoch).Seconds()
	return *sp
}

// write dumps the spans as JSON Lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
