package data

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"consolidation/internal/engine"
	"consolidation/internal/lang"
)

// decodeIntsRef is the strconv-based parser decodeInts replaced, kept as the
// reference: split at commas, ParseInt every token, drop the error.
func decodeIntsRef(s string, dst []int64) []int64 {
	dst = dst[:0]
	for len(s) > 0 {
		i := strings.IndexByte(s, ',')
		var tok string
		if i < 0 {
			tok, s = s, ""
		} else {
			tok, s = s[:i], s[i+1:]
		}
		v, _ := strconv.ParseInt(tok, 10, 64)
		dst = append(dst, v)
	}
	return dst
}

func checkDecode(t *testing.T, s string) {
	t.Helper()
	got, want := decodeInts(s, nil), decodeIntsRef(s, nil)
	if len(got) != len(want) {
		t.Fatalf("decodeInts(%q) = %v (%d values), reference %v (%d values)", s, got, len(got), want, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decodeInts(%q)[%d] = %d, reference %d", s, i, got[i], want[i])
		}
	}
}

// dataset is one generator's output as the decode tests see it: the library
// and its wire-form records.
type dataset struct {
	name    string
	lib     engine.RecordLibrary
	encoded []string
}

// testDatasets generates all seven datasets at test size.
func testDatasets(seed int64) []dataset {
	weather := GenWeather(WeatherConfig{Cities: 40, Months: 24, Seed: seed})
	flight := GenFlight(FlightConfig{Airlines: 60, Cities: 10, Days: 15, Seed: seed})
	news := GenNews(NewsConfig{Articles: 80, VocabSize: 5000, Seed: seed})
	twitter := GenTwitter(TwitterConfig{Tweets: 500, Seed: seed})
	stock := GenStock(StockConfig{Companies: 6, Days: 400, Seed: seed})
	wstream := GenWeatherStream(WeatherStreamConfig{Cities: 20, Hours: 24, Seed: seed})
	ticks := GenStockTicks(StockTicksConfig{Tickers: 15, Ticks: 30, Seed: seed})
	return []dataset{
		{"weather", weather, weather.encoded},
		{"flight", flight, flight.encoded},
		{"news", news, news.encoded},
		{"twitter", twitter, twitter.encoded},
		{"stock", stock, stock.encoded},
		{"weatherstream", wstream, wstream.encoded},
		{"stockticks", ticks, ticks.encoded},
	}
}

// TestDecodeIntsMatchesReference: the single-pass decoder returns exactly
// what the strconv parser returns, on every record the generators write —
// whole, and split at the '|' the two-part records carry — and on the
// tokens no generator writes.
func TestDecodeIntsMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, ds := range testDatasets(seed) {
			for _, raw := range ds.encoded {
				checkDecode(t, raw)
				for _, part := range strings.Split(raw, "|") {
					checkDecode(t, part)
				}
			}
		}
	}
	for _, s := range []string{
		"", ",", "1,,2", "1,2,", ",1", ",,",
		"-", "1,-", "-,1", "--1", "-1", "-0", "1-2",
		"+7", "+", "007", "-007", "0",
		"999999999999999999", "-999999999999999999", // 18 digits: the widest fast-path token
		"1000000000000000000", "9223372036854775807", "-9223372036854775808", // 19 digits
		"9223372036854775808", "-9223372036854775809", // overflow by one
		"12345678901234567890", "-12345678901234567890", // 20 digits
		"000000000000000000001", // 21 characters, value 1
		"99999999999999999999999999999999",
		"1 2", " 1", "1 ", "1, 2", "1,2 ,3",
		"1a", "a", "1,a,2", "0x10", "1_000", "1.5", "1e3", "１",
		"3|4", "3|4,5", "\x00", "1\n",
	} {
		checkDecode(t, s)
	}
}

// FuzzDecodeInts holds the decoder to the reference on arbitrary bytes.
func FuzzDecodeInts(f *testing.F) {
	for _, s := range []string{"", "1,2,3", "-4,5", "1,,2", "+7", "9223372036854775808", "1 2", "0|3,4015,17", "-"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkDecode(t, s) })
}

// TestSetRecordZeroAlloc: once a library's decode buffers have grown to its
// longest record, SetRecord allocates nothing on any dataset.
func TestSetRecordZeroAlloc(t *testing.T) {
	for _, ds := range testDatasets(1) {
		lib, n := ds.lib, ds.lib.NumRecords()
		for i := 0; i < n; i++ {
			lib.SetRecord(i)
		}
		i := 0
		if allocs := testing.AllocsPerRun(2*n, func() { lib.SetRecord(i % n); i++ }); allocs != 0 {
			t.Errorf("%s: SetRecord allocates %.1f times per record at steady state", ds.name, allocs)
		}
	}
}

// TestMalformedRecordSelectsNothing feeds the two libraries whose records
// have a '|' separator one record without it: SetRecord must not index past
// the record, the accessors return their ordinary error, and a pass fails
// with a message naming the record.
func TestMalformedRecordSelectsNothing(t *testing.T) {
	const bad = 3
	tw := GenTwitter(TwitterConfig{Tweets: 10, Seed: 1})
	tw.encoded[bad] = "0,17,4003"
	w := GenWeather(WeatherConfig{Cities: 10, Months: 12, Seed: 1})
	w.encoded[bad] = "1,2,3,4,5,6,7,8,9,10,11,12"
	for _, c := range []struct {
		lib   engine.RecordLibrary
		calls []string
		udf   string
	}{
		{tw, []string{"smileyCount", "sentimentScore", "topicScore", "languageOf", "followerCount"},
			`func q(r) { notify 1 (smileyCount(r) > 0); }`},
		{w, []string{"tempOfMonth", "rainOfMonth", "yearlyAvgTemp", "yearlyAvgRain", "monthCount"},
			`func q(r) { notify 1 (tempOfMonth(r, 1) > 0); }`},
	} {
		c.lib.SetRecord(bad - 1) // a good record first: its decode must not linger
		c.lib.SetRecord(bad)
		for _, fn := range c.calls {
			if _, err := c.lib.Call(fn, []int64{bad, 1}); err == nil || !strings.Contains(err.Error(), "no record selected") {
				t.Errorf("%T.%s on a record without a separator: err = %v, want \"no record selected\"", c.lib, fn, err)
			}
		}
		c.lib.SetRecord(bad + 1)
		if _, err := c.lib.Call(c.calls[0], []int64{bad + 1, 1}); err != nil {
			t.Errorf("%T.%s on the next, well-formed record: %v", c.lib, c.calls[0], err)
		}
		_, err := engine.WhereMany(c.lib, []*lang.Program{lang.MustParse(c.udf)}, engine.Options{Workers: 1})
		want := fmt.Sprintf("on record %d", bad)
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "panic") {
			t.Errorf("%T: pass error = %v, want an ordinary error %q", c.lib, err, want)
		}
	}
}

var decodeSink []int64

// BenchmarkDecodeInts is the decode kernel alone, on the token stream of a
// full-length (27-token) tweet.
func BenchmarkDecodeInts(b *testing.B) {
	var toks string
	for _, raw := range GenTwitter(TwitterConfig{Tweets: 500, Seed: 1}).encoded {
		if _, t, _ := strings.Cut(raw, "|"); len(t) > len(toks) {
			toks = t
		}
	}
	buf := make([]int64, 0, 32)
	b.ReportAllocs()
	b.SetBytes(int64(len(toks)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = decodeInts(toks, buf)
	}
	decodeSink = buf
}

// BenchmarkSetRecord is the full per-record decode of each dataset, cycling
// through its records; steady state is 0 allocs/op (TestSetRecordZeroAlloc
// holds it to that).
func BenchmarkSetRecord(b *testing.B) {
	for _, ds := range testDatasets(1) {
		b.Run(ds.name, func(b *testing.B) {
			lib, n := ds.lib, ds.lib.NumRecords()
			for i := 0; i < n; i++ {
				lib.SetRecord(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lib.SetRecord(i % n)
			}
		})
	}
}
