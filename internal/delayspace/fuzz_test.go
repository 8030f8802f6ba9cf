package delayspace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the CSV parser with adversarial inputs: it
// must either return an error or a matrix that passes Validate —
// never panic, never return a corrupt matrix. The seed corpus runs as
// part of the normal test suite; `go test -fuzz=FuzzReadCSV` explores
// further.
func FuzzReadCSV(f *testing.F) {
	seeds := []string{
		"",
		"0",
		"0,5\n5,0\n",
		"0,5\n6,0\n",
		"# comment\n0,-\n-,0\n",
		"0,1,2\n1,0\n",       // ragged
		"0,abc\nabc,0\n",     // garbage field
		"0,1e300\n1e300,0\n", // huge values
		"0,-5\n-5,0\n",       // negative delay
		"0,NaN\nNaN,0\n",     // NaN
		"0,5,\n5,0,\n,,0\n",  // empty fields become Missing
		strings.Repeat("0\n", 3),
		"0,Inf\nInf,0\n", // infinite delay: parsed by strconv, refused by Valid
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser returned invalid matrix: %v", err)
		}
		// A successfully parsed matrix must round-trip.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatalf("writing parsed matrix: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading written matrix: %v", err)
		}
		if back.N() != m.N() {
			t.Fatalf("round trip changed size %d -> %d", m.N(), back.N())
		}
	})
}

// FuzzReadBinary does the same for the binary codec.
func FuzzReadBinary(f *testing.F) {
	m := New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7.5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TIVM"))
	f.Add([]byte{})
	f.Add([]byte("XXXXAAAA"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("binary parser returned invalid matrix: %v", err)
		}
	})
}
