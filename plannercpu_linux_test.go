package repro_bench

import (
	"syscall"
	"time"
)

// threadCPU returns the user plus system CPU time of the calling OS thread.
// A goroutine reads its own CPU with it only while it is locked to its
// thread (runtime.LockOSThread).
func threadCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
