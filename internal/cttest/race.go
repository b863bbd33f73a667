//go:build race

package cttest

const raceEnabled = true
