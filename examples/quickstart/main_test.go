package main

import (
	"flag"
	"io"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this run")

// TestStdoutGolden runs the example and compares what it prints with
// testdata/stdout.golden. The output is seeded, and equal at any
// GOMAXPROCS. It is compared on amd64 only: the arm64 build fuses
// multiply-adds (Vivaldi's update among them), which moves last digits.
func TestStdoutGolden(t *testing.T) {
	got := captureStdout(t, main)
	const golden = "testdata/stdout.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("output is pinned on amd64; ran on %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return string(<-out)
}
