// UDP probing: the deployment path. Spins up a cluster of real UDP
// measurement agents on loopback, measures the live pairwise RTT
// matrix with the same prober interface the simulations use, and runs
// the TIV analysis plus a Vivaldi embedding on the measured data.
//
// On loopback every RTT is microseconds and the space is trivially
// metric; point the agents at real hosts to measure a real delay
// space.
package main

import (
	"fmt"
	"log"
	"time"

	"tivaware/internal/netprobe"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/tivaware"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("udpprobe: ")

	const agents = 12
	cluster, err := netprobe.NewCluster(agents, "127.0.0.1",
		netprobe.ProbeOptions{Timeout: time.Second, Retries: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.WaitReady(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("started %d UDP agents on loopback\n", cluster.N())

	start := time.Now()
	m, err := cluster.MeasureMatrix(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d pairs in %v\n", m.MeasuredPairs(), time.Since(start).Round(time.Millisecond))

	// RTT profile of the measured matrix.
	var rtts []float64
	m.EachEdge(func(i, j int, d float64) bool {
		rtts = append(rtts, d)
		return true
	})
	fmt.Printf("loopback RTTs (ms): %s\n", stats.Summarize(rtts))

	// TIV analysis on live measurements, through the service layer.
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{})
	if err != nil {
		log.Fatal(err)
	}
	frac := svc.ViolatingTriangleFraction()
	fmt.Printf("violating triangle fraction: %.3f (loopback jitter can create small TIVs)\n", frac)

	// Embed the measured matrix.
	sys, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 1, Neighbors: agents - 1})
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(200)
	errs := stats.Summarize(sys.AbsoluteErrors())
	fmt.Printf("vivaldi on measured matrix: median |err| %.4f ms, p90 %.4f ms\n", errs.Median, errs.P90)
}
