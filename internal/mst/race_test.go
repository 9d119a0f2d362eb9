//go:build race

package mst

// raceEnabled reports a -race build, where sync.Pool drops a quarter of its
// puts at random, so allocation counts say nothing about recycling.
const raceEnabled = true
