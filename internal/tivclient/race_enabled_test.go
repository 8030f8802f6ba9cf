//go:build race

package tivclient

// raceEnabled gates allocation-count assertions: under the race
// detector sync.Pool intentionally drops puts (to expose reuse
// races), so steady-state alloc counts are meaningless there.
const raceEnabled = true
