//go:build !race

package cttest

const raceEnabled = false
