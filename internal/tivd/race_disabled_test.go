//go:build !race

package tivd

const raceEnabled = false
