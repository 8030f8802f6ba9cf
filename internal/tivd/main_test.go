package tivd

import (
	"testing"

	"tivaware/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
