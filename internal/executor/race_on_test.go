//go:build race

package executor

const raceEnabled = true
