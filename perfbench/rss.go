package main

import (
	"fmt"
	"syscall"
)

// peakRSSMB returns the process's peak resident memory (ru_maxrss, in
// KiB on Linux) in MB. Set-up runs the same job as the timed loop, so
// the timed jobs set this peak; on the 2-CPU host it matched a 2 ms
// sampling of the timed loop alone to within 2%.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return mb(float64(ru.Maxrss) * 1024), nil
}
