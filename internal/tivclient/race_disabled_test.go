//go:build !race

package tivclient

const raceEnabled = false
