package ides

// The tests here read unexported state. The black-box tests of this
// package are the ides_test files beside them.

import "testing"

func TestDefaults(t *testing.T) {
	var c Config
	if c.landmarks() != 20 || c.dim() != 10 {
		t.Errorf("defaults: landmarks=%d dim=%d", c.landmarks(), c.dim())
	}
}
