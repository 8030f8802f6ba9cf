package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The box this ledger runs on is a few cores of a shared host, and for
// seconds to hours at a time the same instructions take up to twice as
// long there (a noisy neighbour, not the program). No statistic of one
// run removes that: a run that sits wholly inside a slow spell reads
// slow. So every measured window is bracketed by a speed probe — a
// fixed number of dependent loads from a table the size of the
// second-level cache, on one pinned thread per load worker — and the
// window's timings are scaled by how long the probe took against
// probeNominal, the time it takes on the reference box in a calm hour.
// The end-to-end timings are therefore "at the reference box's calm
// speed"; the figures as measured and the probe's reading are printed
// beside them (load.raw_qps, load.raw_cpu_us_per_query, load.slowdown).
// README.md, "The speed probe", says how the probe was chosen.

const (
	// probeWords is the probe's table in words: 4 MiB per core. One pass
	// walks its first half, one all of it, either side of the 2 MiB a
	// core keeps in its second-level cache — the working-set size whose
	// timing moved one for one with the workloads' when the box slowed.
	probeWords = 1 << 19
	// probeLoads is the number of dependent loads in one pass.
	probeLoads = 1 << 17
	// probeNominal is how long the two passes take on the reference box
	// in a calm hour.
	probeNominal = 11800 * time.Microsecond
)

var probeSink atomic.Uint64

// chase makes probeLoads loads from table, each at an address the one
// before it decides, so the time is the cache's latency and nothing
// overlaps or can be skipped.
func chase(table []uint64) uint64 {
	mask := uint64(len(table) - 1)
	var acc uint64
	for i := 0; i < probeLoads; i++ {
		acc = table[(acc+uint64(i)*0x9E3779B97F4A7C15>>20)&mask] + acc>>3
	}
	return acc
}

// probeWork is the fixed work of one reading.
func probeWork(table []uint64) uint64 {
	return chase(table[:len(table)/2]) + chase(table)
}

// prober owns one goroutine per core, each locked to a thread pinned
// to its own processor where the platform allows (calib_linux.go), so
// a reading is not at the mercy of where the scheduler puts two fresh
// threads.
type prober struct {
	start []chan struct{}
	done  chan slowdown
	wg    sync.WaitGroup
}

// slowdown is one reading: how long the fixed work took, as wall time
// and as the probe thread's CPU time, in units of probeNominal. 1 is
// the reference box's calm speed, 2 a box running at half of it. Wall
// time scales throughput; CPU time, which leaves out time the thread
// spent off its processor, scales CPU cost.
type slowdown struct {
	wall, cpu float64
}

func newProber(cores int) *prober {
	p := &prober{done: make(chan slowdown, cores)}
	for i := 0; i < cores; i++ {
		start := make(chan struct{})
		p.start = append(p.start, start)
		p.wg.Add(1)
		go func(i int) {
			defer p.wg.Done()
			// Locked and never unlocked: the pinned thread ends with the
			// goroutine instead of going back to the runtime's pool.
			runtime.LockOSThread()
			pinThread(i)
			table := make([]uint64, probeWords)
			x := uint64(i + 1)
			for j := range table {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				table[j] = x
			}
			for range start {
				c0, t0 := threadCPU(), time.Now()
				probeSink.Add(probeWork(table))
				p.done <- slowdown{
					wall: float64(time.Since(t0)) / float64(probeNominal),
					cpu:  float64(threadCPU()-c0) / float64(probeNominal),
				}
			}
		}(i)
	}
	p.read() // the first reading pages the tables in
	return p
}

// read runs the fixed work on every core at once and returns the mean
// over the cores.
func (p *prober) read() slowdown {
	for _, start := range p.start {
		start <- struct{}{}
	}
	var sum slowdown
	for range p.start {
		d := <-p.done
		sum.wall += d.wall
		sum.cpu += d.cpu
	}
	n := float64(len(p.start))
	return slowdown{wall: sum.wall / n, cpu: sum.cpu / n}
}

// between is the slowdown charged to what ran between two readings.
func between(before, after slowdown) slowdown {
	return slowdown{wall: (before.wall + after.wall) / 2, cpu: (before.cpu + after.cpu) / 2}
}

// Close stops the probe goroutines and waits for them.
func (p *prober) Close() {
	for _, start := range p.start {
		close(start)
	}
	p.wg.Wait()
}
