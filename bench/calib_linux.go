package main

import (
	"syscall"
	"time"
	"unsafe"
)

// pinThread pins the calling thread to the i-th processor this process
// may run on (wrapping round), so two probe threads never share one.
// Failure leaves the thread unpinned: the probe still runs, only less
// steadily.
func pinThread(i int) {
	var allowed [16]uint64 // 1024 processors
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if errno != 0 {
		return
	}
	var cpus []int
	for w := 0; w < int(n)/8; w++ {
		for b := 0; b < 64; b++ {
			if allowed[w]&(1<<uint(b)) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	if len(cpus) == 0 {
		return
	}
	cpu := cpus[i%len(cpus)]
	var mask [16]uint64
	mask[cpu/64] = 1 << uint(cpu%64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// threadCPU returns the calling thread's CPU time. The call cannot
// fail with these arguments; if it did, both readings of a probe would
// be 0 and the run would end on a cost that is not a number.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
