package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

func writeMatrix(t *testing.T, binary bool) string {
	t.Helper()
	sp, err := synth.Generate(synth.DS2Like(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	name := "m.csv"
	if binary {
		name = "m.bin"
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if binary {
		err = delayspace.WriteBinary(f, sp.Matrix)
	} else {
		err = delayspace.WriteCSV(f, sp.Matrix)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyzeCSV(t *testing.T) {
	path := writeMatrix(t, false)
	var sb strings.Builder
	if err := run([]string{"-in", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"nodes: 50", "violating triangle fraction", "severity CDF", "worst"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%.300s", want, out)
		}
	}
}

func TestAnalyzeBinary(t *testing.T) {
	path := writeMatrix(t, true)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-worst", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "worst 3 edges") {
		t.Error("worst edges section missing")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("missing -in should error")
	}
	if err := run([]string{"-in", "/nonexistent/file"}, &sb); err == nil {
		t.Error("missing file should error")
	}
	path := writeMatrix(t, false)
	if err := run([]string{"-in", path, "-format", "binary"}, &sb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-format: err %v, want an undefined flag (the format is read from the file)", err)
	}
}

func TestAnalyzeClusters(t *testing.T) {
	path := writeMatrix(t, false)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-clusters", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cluster sizes") || !strings.Contains(out, "mean severity by cluster block") {
		t.Errorf("cluster report missing:\n%.400s", out)
	}
}
