//go:build !linux

package main

import "time"

func pinThread(int) {}

var processStart = time.Now()

// threadCPU has no portable source; wall time stands in for it.
func threadCPU() time.Duration { return time.Since(processStart) }
