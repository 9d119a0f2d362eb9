//go:build !race

package mst

const raceEnabled = false
