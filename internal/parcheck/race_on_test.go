//go:build race

package parcheck

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and pool-recycling counts are not deterministic.
const raceEnabled = true
