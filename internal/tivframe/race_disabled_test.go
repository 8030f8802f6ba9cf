//go:build !race

package tivframe

const raceEnabled = false
