//go:build !race

package tivaware

const raceEnabled = false
