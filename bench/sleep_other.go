//go:build !linux

package main

import (
	"runtime"
	"time"
)

// spinClock is the portable stand-in for sleep_linux.go's timerfd
// clock: it sleeps coarsely while the due time is far and polls the
// clock for the last stretch, which keeps the worker's P busy.
type spinClock struct{}

func newWorkerClock() (clock, func(), error) { return spinClock{}, func() {}, nil }

func (spinClock) Now() time.Time { return time.Now() }

func (spinClock) Sleep(d time.Duration) {
	const spinWindow = 2 * time.Millisecond
	due := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
