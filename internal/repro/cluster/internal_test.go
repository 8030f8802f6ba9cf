package cluster

// The tests here read unexported state. The black-box tests of this
// package are in tivaware/internal/cluster.

import "testing"

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.k() != 3 {
		t.Errorf("default k = %d, want 3", o.k())
	}
}
