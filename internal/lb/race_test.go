//go:build race

package lb

func init() { raceEnabled = true }
