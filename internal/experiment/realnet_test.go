package experiment

import (
	"context"
	"testing"
)

func TestRealNetSmoke(t *testing.T) {
	// Genuine wall-clock measurement: assert structure and sanity only
	// (absolute timings are machine-dependent).
	rep, err := RealNet(context.Background(), []int{1, 2}, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("unexpected report shape %+v", rep.Tables)
	}
	s := seriesByName(t, rep, "realnet/wordcount")
	if s.Y[0] != 1 {
		t.Errorf("baseline speedup %g, want 1 (self-relative)", s.Y[0])
	}
	for _, v := range s.Y {
		if v <= 0 {
			t.Errorf("nonpositive measured speedup %g", v)
		}
	}
	// The fitted ε(n) note needs at least two positive merge tail
	// samples.
	ms := seriesByName(t, rep, "realnet/merge-tail-ms")
	for _, v := range ms.Y {
		if v <= 0 {
			t.Errorf("realnet/merge-tail-ms has nonpositive sample %g", v)
		}
	}
	if len(rep.Notes) == 0 {
		t.Error("expected ε(n) power-law fit notes on the realnet report")
	}
}

func TestRealNetValidation(t *testing.T) {
	if _, err := RealNet(context.Background(), nil, 10, 2); err == nil {
		t.Error("empty worker grid should error")
	}
	if _, err := RealNet(context.Background(), []int{1}, 0, 2); err == nil {
		t.Error("zero lines should error")
	}
	if _, err := RealNet(context.Background(), []int{0}, 10, 2); err == nil {
		t.Error("invalid worker count should error")
	}
}
