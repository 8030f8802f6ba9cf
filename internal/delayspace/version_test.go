package delayspace

import "testing"

func TestVersionCountsMutations(t *testing.T) {
	m := New(4)
	v0 := m.Version()
	m.Set(0, 1, 5)
	if m.Version() != v0+1 {
		t.Errorf("Version after one Set: %d, want %d", m.Version(), v0+1)
	}
	m.Set(0, 1, Missing)
	m.Set(2, 3, 7)
	if m.Version() != v0+3 {
		t.Errorf("Version after three Sets: %d, want %d", m.Version(), v0+3)
	}
}

func TestVersionNotCopied(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 5)
	if c := m.Clone(); c.Version() != 0 {
		t.Errorf("Clone carried version %d, want 0 (fresh history)", c.Version())
	}
	if s := m.Submatrix([]int{0, 1}); s.Version() == 0 {
		// Submatrix goes through set, so it has its own non-zero count;
		// the point is it is not tied to the source's counter.
		t.Error("Submatrix should have its own mutation history")
	}
}

func TestSnapshotCarriesVersionAndIsolates(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	snap := m.Snapshot()
	if snap.Version() != m.Version() {
		t.Errorf("snapshot version %d, want source version %d", snap.Version(), m.Version())
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	// Source mutations after the snapshot never reach it.
	m.Set(0, 1, 99)
	m.Set(2, 3, 11)
	if snap.At(0, 1) != 5 || snap.Has(2, 3) {
		t.Errorf("snapshot observed later mutations: At(0,1)=%g Has(2,3)=%v",
			snap.At(0, 1), snap.Has(2, 3))
	}
	if snap.Version() == m.Version() {
		t.Error("snapshot version moved with the source")
	}
}
