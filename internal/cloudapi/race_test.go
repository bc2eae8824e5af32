//go:build race

package cloudapi

func init() { raceEnabled = true }
