//go:build !linux

package cluster

import "time"

// kernelSleep reports that no kernel sleep is available here, so
// WaitUntil keeps its timer for the whole wait.
const kernelSleep = false

func sleepKernel(time.Duration) {}
