package cluster

import (
	"syscall"
	"time"
)

// kernelSleep reports that sleepKernel sleeps on this OS.
const kernelSleep = true

// sleepKernel sleeps d in the kernel, whose timer is not rounded to
// whole milliseconds. A signal can end it early; WaitUntil re-checks
// the clock and sleeps the rest.
func sleepKernel(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // EINTR only: the caller re-checks the clock
}
