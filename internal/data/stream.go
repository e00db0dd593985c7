package data

import "consolidation/internal/engine"

// Streaming datasets for the windowed-aggregation workload: unlike the
// batch datasets (one record per city/airline/article), these are
// observation streams — one record per reading, interleaved across
// entities in arrival order — so count-partitioned windows model "every N
// readings" and key-partitioned windows model "every N readings per city /
// per ticker". Records live in the same encoded wire form as the batch
// datasets and SetRecord pays the decode.

// WeatherStreamConfig sizes the weather observation stream.
type WeatherStreamConfig struct {
	// Cities is the number of weather stations; observations interleave
	// round-robin with per-record jitter, as station uplinks would.
	Cities int
	// Hours is the number of observations per city.
	Hours int
	Seed  int64
}

// WeatherStream is an hourly observation stream.
//
// Library functions (r is the record handle):
//
//	cityOf(r)  — the observing station's id (cheap: key extraction)
//	tempObs(r) — the observed temperature
//	rainObs(r) — the observed rainfall
type WeatherStream struct {
	encoded []string // "city,temp,rain" per observation
	costs   costTable

	cur       []int64
	decodedOK bool
}

// GenWeatherStream simulates the observation stream: every hour each city
// reports once, with the city order jittered per hour; temperature and
// rainfall follow the batch weather dataset's climate model (bias per
// city, seasonal swing, per-reading noise).
func GenWeatherStream(cfg WeatherStreamConfig) *WeatherStream {
	rng := newRNG(cfg.Seed)
	w := &WeatherStream{
		costs: costTable{
			"cityOf":  4,
			"tempObs": 40,
			"rainObs": 40,
		},
	}
	tempBias := make([]int64, cfg.Cities)
	rainBias := make([]int64, cfg.Cities)
	for c := range tempBias {
		tempBias[c] = int64(rng.Intn(8) - 2)
		rainBias[c] = int64(rng.Intn(120))
	}
	order := make([]int, cfg.Cities)
	for i := range order {
		order[i] = i
	}
	for h := 0; h < cfg.Hours; h++ {
		season := int64((h/24)%12 - 6)
		if season < 0 {
			season = -season
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, c := range order {
			t := int64(rng.Intn(12)-1) + tempBias[c] + season/2
			r := int64(rng.Intn(201)) * rainBias[c] / 200
			w.encoded = append(w.encoded, encodeInts([]int64{int64(c), t, r}))
		}
	}
	return w
}

// NumRecords implements engine.RecordLibrary.
func (w *WeatherStream) NumRecords() int { return len(w.encoded) }

// SetRecord implements engine.RecordLibrary: decodes observation i.
func (w *WeatherStream) SetRecord(i int) {
	w.cur = decodeInts(w.encoded[i], w.cur)
	w.decodedOK = true
}

// Clone implements engine.RecordLibrary.
func (w *WeatherStream) Clone() engine.RecordLibrary {
	return &WeatherStream{encoded: w.encoded, costs: w.costs}
}

// FuncCost implements lang.FuncCoster.
func (w *WeatherStream) FuncCost(name string) (int64, bool) { return w.costs.FuncCost(name) }

// field answers the accessors: column col of the decoded observation.
func (w *WeatherStream) field(name string, col int, args []int64) (int64, error) {
	if !w.decodedOK {
		return 0, errNoRecord("weather stream")
	}
	if len(args) != 1 {
		return 0, errArity(name, 1, len(args))
	}
	return w.cur[col], nil
}

func (w *WeatherStream) cityOf(args []int64) (int64, error)  { return w.field("cityOf", 0, args) }
func (w *WeatherStream) tempObs(args []int64) (int64, error) { return w.field("tempObs", 1, args) }
func (w *WeatherStream) rainObs(args []int64) (int64, error) { return w.field("rainObs", 2, args) }

// Resolve implements lang.DirectCaller.
func (w *WeatherStream) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "cityOf":
		return w.cityOf, true
	case "tempObs":
		return w.tempObs, true
	case "rainObs":
		return w.rainObs, true
	}
	return nil, false
}

// Call implements lang.Library.
func (w *WeatherStream) Call(name string, args []int64) (int64, error) {
	fn, ok := w.Resolve(name)
	if !ok {
		return 0, errNoFunc("weather stream", name)
	}
	return fn(args)
}

// StockTicksConfig sizes the stock tick stream.
type StockTicksConfig struct {
	// Tickers is the number of instruments; ticks interleave across them.
	Tickers int
	// Ticks is the number of ticks per instrument.
	Ticks int
	Seed  int64
}

// StockTicks is a trade tick stream for OHLC-style windows.
//
// Library functions (r is the record handle):
//
//	tickerOf(r) — the instrument id (cheap: key extraction)
//	priceOf(r)  — the trade price in cents
//	volumeOf(r) — the traded volume
type StockTicks struct {
	encoded []string // "ticker,price,volume" per tick
	costs   costTable

	cur       []int64
	decodedOK bool
}

// GenStockTicks simulates per-instrument random-walk prices (Nasdaq-style
// levels, as in the batch stock dataset) with lognormal-ish volumes,
// interleaved across instruments in tick order.
func GenStockTicks(cfg StockTicksConfig) *StockTicks {
	rng := newRNG(cfg.Seed)
	s := &StockTicks{
		costs: costTable{
			"tickerOf": 4,
			"priceOf":  40,
			"volumeOf": 40,
		},
	}
	price := make([]int64, cfg.Tickers)
	for i := range price {
		price[i] = int64(2000 + rng.Intn(48000)) // 20.00 .. 500.00
	}
	order := make([]int, cfg.Tickers)
	for i := range order {
		order[i] = i
	}
	for t := 0; t < cfg.Ticks; t++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			drift := int64(rng.Intn(41) - 20)
			price[k] += price[k] * drift / 2000
			if price[k] < 100 {
				price[k] = 100
			}
			vol := int64(1 + rng.Intn(100)*rng.Intn(100))
			s.encoded = append(s.encoded, encodeInts([]int64{int64(k), price[k], vol}))
		}
	}
	return s
}

// NumRecords implements engine.RecordLibrary.
func (s *StockTicks) NumRecords() int { return len(s.encoded) }

// SetRecord implements engine.RecordLibrary: decodes tick i.
func (s *StockTicks) SetRecord(i int) {
	s.cur = decodeInts(s.encoded[i], s.cur)
	s.decodedOK = true
}

// Clone implements engine.RecordLibrary.
func (s *StockTicks) Clone() engine.RecordLibrary {
	return &StockTicks{encoded: s.encoded, costs: s.costs}
}

// FuncCost implements lang.FuncCoster.
func (s *StockTicks) FuncCost(name string) (int64, bool) { return s.costs.FuncCost(name) }

// field answers the accessors: column col of the decoded tick.
func (s *StockTicks) field(name string, col int, args []int64) (int64, error) {
	if !s.decodedOK {
		return 0, errNoRecord("stock ticks")
	}
	if len(args) != 1 {
		return 0, errArity(name, 1, len(args))
	}
	return s.cur[col], nil
}

func (s *StockTicks) tickerOf(args []int64) (int64, error) { return s.field("tickerOf", 0, args) }
func (s *StockTicks) priceOf(args []int64) (int64, error)  { return s.field("priceOf", 1, args) }
func (s *StockTicks) volumeOf(args []int64) (int64, error) { return s.field("volumeOf", 2, args) }

// Resolve implements lang.DirectCaller.
func (s *StockTicks) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "tickerOf":
		return s.tickerOf, true
	case "priceOf":
		return s.priceOf, true
	case "volumeOf":
		return s.volumeOf, true
	}
	return nil, false
}

// Call implements lang.Library.
func (s *StockTicks) Call(name string, args []int64) (int64, error) {
	fn, ok := s.Resolve(name)
	if !ok {
		return 0, errNoFunc("stock ticks", name)
	}
	return fn(args)
}
