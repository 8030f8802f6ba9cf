package tivaware_test

import (
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
)

// buildMeridian and queryOptions keep the Meridian micro-benchmark
// free of inline configuration noise.
func buildMeridian(prober nsim.Prober, ids []int) (*meridian.System, error) {
	return meridian.Build(prober, ids, meridian.Config{Seed: 1}, meridian.BuildOptions{})
}

func queryOptions() meridian.QueryOptions {
	return meridian.QueryOptions{}
}
