//go:build !race

package smt

const raceEnabled = false
