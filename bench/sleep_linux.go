package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerClock sleeps on a timerfd read through the runtime's network
// poller: the goroutine parks, its P goes idle, and the kernel's
// high-resolution timer wakes it within tens of microseconds. A
// worker that polled the clock instead would keep its P busy between
// requests, so the collector could only run by preempting the load
// generator — which shows up as lateness the program did not cause.
type timerClock struct {
	f   *os.File
	buf [8]byte
}

// itimerspec mirrors struct itimerspec (timerfd_settime(2)).
type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK: lets os.NewFile hand the fd to the poller
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

// newWorkerClock returns one open-loop worker's clock and the function
// that releases it.
func newWorkerClock() (clock, func(), error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, nil, os.NewSyscallError("timerfd_create", errno)
	}
	c := &timerClock{f: os.NewFile(fd, "timerfd")}
	return c, func() { c.f.Close() }, nil
}

func (c *timerClock) Now() time.Time { return time.Now() }

func (c *timerClock) Sleep(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno == 0 {
		if _, err := c.f.Read(c.buf[:]); err == nil {
			return
		}
	}
	// Unreachable on a working kernel; a coarse sleep keeps the schedule
	// moving and the lateness metric shows what it cost.
	time.Sleep(d)
}
