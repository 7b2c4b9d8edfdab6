//go:build !race

package parcheck

const raceEnabled = false
