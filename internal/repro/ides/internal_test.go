package ides

// The tests here read unexported state. The black-box tests of this
// package are in tivaware/internal/ides.

import "testing"

func TestDefaults(t *testing.T) {
	var c Config
	if c.landmarks() != 20 || c.dim() != 10 {
		t.Errorf("defaults: landmarks=%d dim=%d", c.landmarks(), c.dim())
	}
}
