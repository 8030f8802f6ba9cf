//go:build race

package tivaware

// raceEnabled gates the byte ceilings: the race detector changes what
// the runtime allocates, so the exact figures hold only without it.
const raceEnabled = true
