package delayspace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The on-disk formats:
//
//   - CSV: one row per node, comma separated, "-" or empty for missing
//     entries. Human inspectable; what cmd/tivgen writes by default.
//   - Binary: "TIVM" magic, uint32 N, then N*N little-endian float64s.
//     Compact and fast for the 4000-node paper-scale matrices.

// WriteCSV writes m in CSV form.
func WriteCSV(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	n := m.N()
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < n; j++ {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			var s string
			if row[j] == Missing {
				s = "-"
			} else {
				s = strconv.FormatFloat(row[j], 'g', -1, 64)
			}
			if _, err := bw.WriteString(s); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a matrix written by WriteCSV. Asymmetric inputs are
// symmetrized by averaging (measured data sets report directional
// RTTs that differ slightly; the paper works on the symmetrized
// matrix).
func ReadCSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var rows [][]float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		row := make([]float64, len(fields))
		for i, f := range fields {
			f = strings.TrimSpace(f)
			if f == "" || f == "-" {
				row[i] = Missing
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("delayspace: line %d field %d: %w", line, i+1, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("delayspace: reading CSV: %w", err)
	}
	return FromRows(rows)
}

var binaryMagic = [4]byte{'T', 'I', 'V', 'M'}

// ReadMatrix reads a matrix in either format, told apart by the binary
// magic: input that starts with "TIVM" is read by ReadBinary, anything
// else by ReadCSV.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(binaryMagic)); string(magic) == string(binaryMagic[:]) {
		return ReadBinary(br)
	}
	return ReadCSV(br)
}

// WriteBinary writes m in the compact binary format.
func WriteBinary(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(m.N())); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, v := range m.data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a matrix written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("delayspace: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("delayspace: bad magic %q", magic)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("delayspace: reading size: %w", err)
	}
	const maxNodes = 1 << 14 // 16384 nodes = 2 GiB matrix, the sanity ceiling
	if n > maxNodes {
		return nil, fmt.Errorf("delayspace: size %d exceeds limit %d", n, maxNodes)
	}
	// Read row by row so memory tracks the bytes actually supplied: a
	// hostile header claiming a huge matrix fails on the first
	// truncated row instead of pre-allocating gigabytes (found by
	// FuzzReadBinary).
	size := int(n)
	rows := make([][]float64, 0, size)
	rowBytes := make([]byte, size*8)
	for i := 0; i < size; i++ {
		if _, err := io.ReadFull(br, rowBytes); err != nil {
			return nil, fmt.Errorf("delayspace: reading row %d: %w", i, err)
		}
		row := make([]float64, size)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rowBytes[j*8:]))
		}
		rows = append(rows, row)
	}
	m := &Matrix{n: size, data: make([]float64, size*size)}
	for i, row := range rows {
		copy(m.data[i*size:(i+1)*size], row)
	}
	m.rebuildMask()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
