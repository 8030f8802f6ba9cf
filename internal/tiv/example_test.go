package tiv_test

import (
	"fmt"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// The paper's canonical example (§3.2.1): A and B are 5 ms apart, B
// and C are 5 ms apart, yet A and C measure 100 ms. The long edge
// violates the triangle inequality through B with ratio 100/10 = 10,
// over |S| = 3 nodes.
func ExampleEdgeSeverities_At() {
	m := delayspace.New(3)
	m.Set(0, 1, 5)   // A-B
	m.Set(1, 2, 5)   // B-C
	m.Set(2, 0, 100) // C-A: the TIV edge

	sev := tiv.AllSeverities(m, tiv.Options{Workers: 1})
	fmt.Printf("severity(A,B) = %.2f\n", sev.At(0, 1))
	fmt.Printf("severity(C,A) = %.2f\n", sev.At(2, 0))
	// Output:
	// severity(A,B) = 0.00
	// severity(C,A) = 3.33
}

func ExampleAllSeverities() {
	m := delayspace.New(4)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(0, 2, 100)
	m.Set(0, 3, 7)
	m.Set(1, 3, 7)
	m.Set(2, 3, 7)

	sev := tiv.AllSeverities(m, tiv.Options{Workers: 1})
	worst := sev.TopEdges(1)[0]
	fmt.Printf("worst edge: %d-%d severity %.2f\n", worst.I, worst.J, worst.Delay)
	// Output:
	// worst edge: 0-2 severity 4.29
}
