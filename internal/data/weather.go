package data

import (
	"fmt"
	"strings"

	"consolidation/internal/engine"
)

// WeatherConfig sizes the weather dataset. The paper's full configuration
// is 500 cities over 24 months of hourly data.
type WeatherConfig struct {
	Cities int
	Months int
	Seed   int64
}

// DefaultWeatherConfig is the paper's configuration.
func DefaultWeatherConfig() WeatherConfig {
	return WeatherConfig{Cities: 500, Months: 24, Seed: 1}
}

// Weather is the weather dataset: one record per city, with per-month
// average temperature and rainfall aggregated from simulated hourly data.
//
// Library functions (r is the record handle UDFs receive):
//
//	tempOfMonth(r, m)   — average temperature of month m (1-based)
//	rainOfMonth(r, m)   — average rainfall of month m
//	yearlyAvgTemp(r, y) — average temperature of year y (1-based)
//	yearlyAvgRain(r, y) — average rainfall of year y
//	monthCount(r)       — number of months of data
type Weather struct {
	cfg     WeatherConfig
	encoded []string // per-city "t0,…,tM-1|r0,…,rM-1"
	costs   costTable

	cur       int
	curTemps  []int64
	curRains  []int64
	scratch   []int64
	decodedOK bool
}

// GenWeather simulates hourly weather (temperature −1..10, rainfall 0..200
// as in Section 6.2) for every city and month, aggregates monthly
// averages, and stores the records in wire form.
func GenWeather(cfg WeatherConfig) *Weather {
	rng := newRNG(cfg.Seed)
	w := &Weather{
		cfg: cfg,
		costs: costTable{
			"tempOfMonth":   40,
			"rainOfMonth":   40,
			"yearlyAvgTemp": 400,
			"yearlyAvgRain": 400,
			"monthCount":    4,
		},
	}
	const hoursPerMonth = 30 * 24
	for c := 0; c < cfg.Cities; c++ {
		temps := make([]int64, cfg.Months)
		rains := make([]int64, cfg.Months)
		// Each city has a climate offset so that filters are selective.
		tempBias := rng.Intn(8) - 2
		rainBias := rng.Intn(120)
		for m := 0; m < cfg.Months; m++ {
			var tSum, rSum int64
			season := int64((m % 12) - 6)
			if season < 0 {
				season = -season
			}
			for h := 0; h < hoursPerMonth; h++ {
				t := int64(rng.Intn(12)-1) + int64(tempBias) + season/2
				r := int64(rng.Intn(201)) * int64(rainBias) / 200
				tSum += t
				rSum += r
			}
			temps[m] = tSum / hoursPerMonth
			rains[m] = rSum / hoursPerMonth
		}
		w.encoded = append(w.encoded, encodeInts(temps)+"|"+encodeInts(rains))
	}
	return w
}

// NumRecords implements engine.RecordLibrary.
func (w *Weather) NumRecords() int { return len(w.encoded) }

// SetRecord implements engine.RecordLibrary: decodes city i's record. A
// record without the '|' separator selects nothing: every accessor then
// returns its "no record selected" error.
func (w *Weather) SetRecord(i int) {
	w.cur = i
	temps, rains, ok := strings.Cut(w.encoded[i], "|")
	if ok {
		w.curTemps = decodeInts(temps, w.curTemps)
		w.curRains = decodeInts(rains, w.curRains)
	}
	w.decodedOK = ok
}

// Clone implements engine.RecordLibrary.
func (w *Weather) Clone() engine.RecordLibrary {
	return &Weather{cfg: w.cfg, encoded: w.encoded, costs: w.costs}
}

// FuncCost implements lang.FuncCoster.
func (w *Weather) FuncCost(name string) (int64, bool) { return w.costs.FuncCost(name) }

// monthly answers tempOfMonth and rainOfMonth from the decoded series src.
func (w *Weather) monthly(name string, src, args []int64) (int64, error) {
	if !w.decodedOK {
		return 0, errNoRecord("weather")
	}
	if len(args) != 2 {
		return 0, errArity(name, 2, len(args))
	}
	m := args[1]
	if m < 1 || m > int64(len(src)) {
		return 0, fmt.Errorf("data: weather: month %d out of range", m)
	}
	return src[m-1], nil
}

// yearly answers yearlyAvgTemp and yearlyAvgRain from the decoded series src.
func (w *Weather) yearly(name string, src, args []int64) (int64, error) {
	if !w.decodedOK {
		return 0, errNoRecord("weather")
	}
	if len(args) != 2 {
		return 0, errArity(name, 2, len(args))
	}
	y := args[1]
	if y < 1 || y > int64(len(src))/12 {
		return 0, fmt.Errorf("data: weather: year %d out of range", y)
	}
	var sum int64
	for _, v := range src[(y-1)*12 : y*12] {
		sum += v
	}
	return sum / 12, nil
}

func (w *Weather) tempOfMonth(args []int64) (int64, error) {
	return w.monthly("tempOfMonth", w.curTemps, args)
}

func (w *Weather) rainOfMonth(args []int64) (int64, error) {
	return w.monthly("rainOfMonth", w.curRains, args)
}

func (w *Weather) yearlyAvgTemp(args []int64) (int64, error) {
	return w.yearly("yearlyAvgTemp", w.curTemps, args)
}

func (w *Weather) yearlyAvgRain(args []int64) (int64, error) {
	return w.yearly("yearlyAvgRain", w.curRains, args)
}

func (w *Weather) monthCount(args []int64) (int64, error) {
	if !w.decodedOK {
		return 0, errNoRecord("weather")
	}
	return int64(len(w.curTemps)), nil
}

// Resolve implements lang.DirectCaller.
func (w *Weather) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "tempOfMonth":
		return w.tempOfMonth, true
	case "rainOfMonth":
		return w.rainOfMonth, true
	case "yearlyAvgTemp":
		return w.yearlyAvgTemp, true
	case "yearlyAvgRain":
		return w.yearlyAvgRain, true
	case "monthCount":
		return w.monthCount, true
	}
	return nil, false
}

// Call implements lang.Library.
func (w *Weather) Call(name string, args []int64) (int64, error) {
	fn, ok := w.Resolve(name)
	if !ok {
		return 0, errNoFunc("weather", name)
	}
	return fn(args)
}
