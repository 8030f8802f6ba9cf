package delayspace

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomMatrix(seed int64, n int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(10) == 0 {
				continue // leave some pairs missing
			}
			m.Set(i, j, float64(rng.Intn(100000))/100)
		}
	}
	return m
}

func equalMatrices(a, b *Matrix) bool {
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

func TestCSVRoundTrip(t *testing.T) {
	m := randomMatrix(7, 9)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatrices(m, got) {
		t.Error("CSV round trip lost data")
	}
}

func TestReadCSVTolerant(t *testing.T) {
	in := "# comment\n0, 5, -\n5, 0, 2\n-, 2, 0\n\n"
	m, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 || m.At(0, 1) != 5 || m.Has(0, 2) {
		t.Errorf("parsed wrong matrix: n=%d", m.N())
	}
}

func TestReadCSVBadField(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("0,x\nx,0\n")); err == nil {
		t.Error("expected parse error")
	}
}

func TestReadCSVAsymmetricAveraged(t *testing.T) {
	m, err := ReadCSV(strings.NewReader("0,10\n20,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 15 {
		t.Errorf("At = %g, want averaged 15", m.At(0, 1))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := randomMatrix(11, 17)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatrices(m, got) {
		t.Error("binary round trip lost data")
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated payload.
	m := randomMatrix(3, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input accepted")
	}
	// Oversized claimed dimension.
	huge := append([]byte("TIVM"), 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil {
		t.Error("oversized dimension accepted")
	}
}

// TestReadMatrix: ReadMatrix reads each format as that format's own
// reader does, and refuses what that reader refuses.
func TestReadMatrix(t *testing.T) {
	m := randomMatrix(13, 9)
	var csv, bin bytes.Buffer
	if err := WriteCSV(&csv, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		read func(io.Reader) (*Matrix, error)
		bad  bool
	}{
		{"csv", csv.Bytes(), ReadCSV, false},
		{"binary", bin.Bytes(), ReadBinary, false},
		{"truncated binary", bin.Bytes()[:bin.Len()-4], ReadBinary, true},
		{"binary header only", bin.Bytes()[:6], ReadBinary, true},
		{"non-numeric text", []byte("0,x\nx,0\n"), ReadCSV, true},
	} {
		want, wantErr := tc.read(bytes.NewReader(tc.in))
		got, err := ReadMatrix(bytes.NewReader(tc.in))
		if tc.bad {
			if err == nil || wantErr == nil {
				t.Errorf("%s: ReadMatrix error %v, its reader's %v; want both refused", tc.name, err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatalf("%s: ReadMatrix error %v, its reader's %v", tc.name, err, wantErr)
		}
		if !equalMatrices(got, want) || !equalMatrices(got, m) {
			t.Errorf("%s: ReadMatrix read another matrix than its reader or the one written", tc.name)
		}
	}
}

func TestBinaryRejectsCorruptMatrix(t *testing.T) {
	m := randomMatrix(5, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one matrix entry to break symmetry: entry (0,1) starts at
	// offset 8 (magic+size) + 1*8.
	raw[8+8] ^= 0x01
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt matrix accepted")
	}
}

// Property: both codecs round-trip arbitrary random matrices.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMatrix(seed, 1+int(uint(seed)%13))
		var b1, b2 bytes.Buffer
		if err := WriteCSV(&b1, m); err != nil {
			return false
		}
		if err := WriteBinary(&b2, m); err != nil {
			return false
		}
		fromCSV, err := ReadCSV(&b1)
		if err != nil {
			return false
		}
		fromBin, err := ReadBinary(&b2)
		if err != nil {
			return false
		}
		return equalMatrices(m, fromCSV) && equalMatrices(m, fromBin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
