//go:build !linux

package main

import (
	"math"
	"syscall"
)

// childAttr puts a daemon in its own process group, so one signal to the
// group reaps it with anything it started.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true}
}

// deviceOf cannot tell tmpfs from disk off Linux; it reports disk and no
// space limit.
func deviceOf(string) (kind string, free int64, err error) {
	return "disk", math.MaxInt64, nil
}

// peakRSSMiB needs /proc; off Linux a child's peak RSS is not reported.
func peakRSSMiB(int) float64 { return 0 }

// resetPeakRSS needs /proc; off Linux the watermark is the process's.
func resetPeakRSS() {}
