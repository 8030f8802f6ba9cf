package meridian

// The tests here and in failure_test.go read unexported state; prober
// and allIDs serve both. The black-box tests of this package are in
// tivaware/internal/meridian.

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/nsim"
)

func prober(t testing.TB, m *delayspace.Matrix) *nsim.MatrixProber {
	t.Helper()
	p, err := nsim.NewMatrixProber(m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.k() != 16 || c.beta() != 0.5 {
		t.Errorf("defaults: k=%d β=%g", c.k(), c.beta())
	}
	unlimited := Config{K: -1}
	if unlimited.k() < 1<<30 {
		t.Error("K=-1 should mean unlimited")
	}
}
