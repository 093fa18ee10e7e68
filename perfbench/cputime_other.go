//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadCPU falls back to the wall clock where no per-thread CPU clock is
// read: the calibration loop then also counts time its goroutine waits.
func threadCPU() (time.Duration, error) { return time.Since(processStart), nil }
