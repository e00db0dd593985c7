// Package data provides the five datasets of the paper's evaluation
// (Section 6.2) as deterministic, seeded synthetic generators with the
// schemas and cardinalities the paper reports:
//
//   - Weather: hourly weather for two years across 500 cities, aggregated
//     to monthly averages (temperature −1..10 °C, rainfall 0..200 mm).
//   - Flight: flights during the first half of November 2013 for 500
//     airlines across 10 world cities, 12 daily flights between all
//     cities, prices from arithmetic progressions in the airline and city
//     identifiers.
//   - News: articles modelled on the Reuters-21578 collection (19043
//     English articles) with Zipf-distributed vocabularies.
//   - Twitter: 31152 tweets in three languages with smileys, sentiment
//     and topic signals.
//   - Stock: 377423 daily rows of Nasdaq-100-style price history.
//
// The paper used two synthetic (weather, flight) and three real datasets;
// the real ones are substituted with generators because the experiments
// measure computation sharing between UDFs, which depends on schemas and
// parameter distributions rather than on the literal corpus (see
// DESIGN.md). Every dataset implements engine.RecordLibrary: records are
// stored in an encoded wire form and decoded by SetRecord (decodeInts, one
// forward pass over the record's bytes), so each pass over the data pays a
// realistic per-record ingest cost.
package data

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// costTable prices library functions for the cost semantics; datasets embed
// it.
type costTable map[string]int64

func (c costTable) FuncCost(name string) (int64, bool) {
	v, ok := c[name]
	return v, ok
}

func errArity(fn string, want, got int) error {
	return fmt.Errorf("data: %s expects %d arguments, got %d", fn, want, got)
}

func errNoRecord(ds string) error {
	return fmt.Errorf("data: %s: no record selected", ds)
}

func errNoFunc(ds, fn string) error {
	return fmt.Errorf("data: %s dataset has no function %q", ds, fn)
}

// encodeInts renders a row of integers in the CSV-ish wire form.
func encodeInts(vals []int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

// decodeInts parses the wire form — the simulated IO/deserialisation work
// of a pass over the data — in one forward pass over the bytes: sign, digit
// accumulate, comma. A token of the shape -?[0-9]{1,18} (every token the
// generators write) never leaves the loop; any other token is parsed by
// strconv with the error dropped, so a malformed token decodes to 0, an
// overflowing one to the nearest int64, and a trailing comma adds no value
// — the values the strconv-only parser (decodeIntsRef, decode_test.go)
// returns, for every input.
func decodeInts(s string, dst []int64) []int64 {
	dst = dst[:0]
	for i := 0; i < len(s); i++ { // the increment steps over the comma
		start := i
		neg := s[i] == '-'
		if neg {
			i++
		}
		var v int64
		first := i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			v = v*10 + int64(s[i]-'0')
		}
		if neg {
			v = -v
		}
		if n := i - first; n == 0 || n > 18 || (i < len(s) && s[i] != ',') {
			for i < len(s) && s[i] != ',' {
				i++
			}
			v, _ = strconv.ParseInt(s[start:i], 10, 64)
		}
		dst = append(dst, v)
	}
	return dst
}

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// splitmix64 is a stateless mixer for derived columns that must not perturb
// a generator's rand stream (adding such a column keeps every previously
// generated record byte-identical).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
