//go:build !race

package indexnode

const raceEnabled = false
