//go:build !linux

package repro_bench

import "time"

// threadCPU reports no per-thread CPU time outside Linux.
func threadCPU() (time.Duration, bool) { return 0, false }
