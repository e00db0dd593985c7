package data

import (
	"fmt"

	"consolidation/internal/engine"
)

// FlightConfig sizes the flight dataset. The paper generates flights for
// the first half of November 2013 (15 days) for 500 airlines across 10
// world cities, with 12 daily flights between all city pairs and a quarter
// of flights domestic.
type FlightConfig struct {
	Airlines int
	Cities   int
	Days     int
	Seed     int64
}

// DefaultFlightConfig is the paper's configuration.
func DefaultFlightConfig() FlightConfig {
	return FlightConfig{Airlines: 500, Cities: 10, Days: 15, Seed: 2}
}

// Flight is the flight dataset: one record per airline. Prices follow a
// multiple arithmetic progression in the airline and the origin and
// destination city identifiers, as in Section 6.2.
//
// Library functions:
//
//	directPrice(r, c1, c2)   — price of a direct c1→c2 flight, or -1
//	connPrice(r, c1, m, c2)  — price of c1→m→c2 with a connection, or -1
//	dayPrice(r, c1, c2, d)   — direct price on day d (0-based), or -1
//	cityCount(r)             — number of cities
//	dayCountF(r)             — number of days
type Flight struct {
	cfg     FlightConfig
	encoded []string // per-airline "base,step,serveMask"
	costs   costTable

	cur     []int64
	scratch []int64
	ok      bool
}

// GenFlight builds the dataset.
func GenFlight(cfg FlightConfig) *Flight {
	rng := newRNG(cfg.Seed)
	f := &Flight{
		cfg: cfg,
		costs: costTable{
			"directPrice": 30,
			"connPrice":   45,
			"dayPrice":    30,
			"cityCount":   4,
			"dayCountF":   4,
		},
	}
	for a := 0; a < cfg.Airlines; a++ {
		base := int64(40 + rng.Intn(260))
		step := int64(1 + rng.Intn(9))
		// serveMask decides which of the city pairs the airline serves so
		// that roughly 3/4 of routes exist (1/4 of flights are domestic in
		// the paper's setup; domestic pairs are those with c1/2 == c2/2).
		mask := rng.Int63()
		f.encoded = append(f.encoded, encodeInts([]int64{base, step, mask}))
	}
	return f
}

// NumRecords implements engine.RecordLibrary.
func (f *Flight) NumRecords() int { return len(f.encoded) }

// SetRecord implements engine.RecordLibrary.
func (f *Flight) SetRecord(i int) {
	f.cur = decodeInts(f.encoded[i], f.cur)
	f.ok = true
}

// Clone implements engine.RecordLibrary.
func (f *Flight) Clone() engine.RecordLibrary {
	return &Flight{cfg: f.cfg, encoded: f.encoded, costs: f.costs}
}

// FuncCost implements lang.FuncCoster.
func (f *Flight) FuncCost(name string) (int64, bool) { return f.costs.FuncCost(name) }

func (f *Flight) serves(c1, c2 int64) bool {
	if c1 == c2 {
		return false
	}
	bit := uint((c1*int64(f.cfg.Cities) + c2) % 62)
	// Three out of four pairs are served on average.
	return (f.cur[2]>>bit)&1 == 1 || (c1+c2)%2 == 0
}

// price is the arithmetic-progression price model of Section 6.2.
func (f *Flight) price(c1, c2, day int64) int64 {
	base, step := f.cur[0], f.cur[1]
	return base + 13*c1 + 17*c2 + step*day
}

func (f *Flight) checkCity(c int64) error {
	if c < 0 || c >= int64(f.cfg.Cities) {
		return fmt.Errorf("data: flight: city %d out of range", c)
	}
	return nil
}

func (f *Flight) directPrice(args []int64) (int64, error) {
	if !f.ok {
		return 0, errNoRecord("flight")
	}
	if len(args) != 3 {
		return 0, errArity("directPrice", 3, len(args))
	}
	c1, c2 := args[1], args[2]
	if err := f.checkCity(c1); err != nil {
		return 0, err
	}
	if err := f.checkCity(c2); err != nil {
		return 0, err
	}
	if !f.serves(c1, c2) {
		return -1, nil
	}
	return f.price(c1, c2, 0), nil
}

func (f *Flight) connPrice(args []int64) (int64, error) {
	if !f.ok {
		return 0, errNoRecord("flight")
	}
	if len(args) != 4 {
		return 0, errArity("connPrice", 4, len(args))
	}
	c1, m, c2 := args[1], args[2], args[3]
	for _, c := range args[1:] {
		if err := f.checkCity(c); err != nil {
			return 0, err
		}
	}
	if m == c1 || m == c2 || !f.serves(c1, m) || !f.serves(m, c2) {
		return -1, nil
	}
	return f.price(c1, m, 0) + f.price(m, c2, 0) - 10, nil
}

func (f *Flight) dayPrice(args []int64) (int64, error) {
	if !f.ok {
		return 0, errNoRecord("flight")
	}
	if len(args) != 4 {
		return 0, errArity("dayPrice", 4, len(args))
	}
	c1, c2, d := args[1], args[2], args[3]
	if err := f.checkCity(c1); err != nil {
		return 0, err
	}
	if err := f.checkCity(c2); err != nil {
		return 0, err
	}
	if d < 0 || d >= int64(f.cfg.Days) {
		return 0, fmt.Errorf("data: flight: day %d out of range", d)
	}
	if !f.serves(c1, c2) {
		return -1, nil
	}
	return f.price(c1, c2, d), nil
}

func (f *Flight) cityCount(args []int64) (int64, error) {
	if !f.ok {
		return 0, errNoRecord("flight")
	}
	return int64(f.cfg.Cities), nil
}

func (f *Flight) dayCountF(args []int64) (int64, error) {
	if !f.ok {
		return 0, errNoRecord("flight")
	}
	return int64(f.cfg.Days), nil
}

// Resolve implements lang.DirectCaller.
func (f *Flight) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "directPrice":
		return f.directPrice, true
	case "connPrice":
		return f.connPrice, true
	case "dayPrice":
		return f.dayPrice, true
	case "cityCount":
		return f.cityCount, true
	case "dayCountF":
		return f.dayCountF, true
	}
	return nil, false
}

// Call implements lang.Library.
func (f *Flight) Call(name string, args []int64) (int64, error) {
	fn, ok := f.Resolve(name)
	if !ok {
		return 0, errNoFunc("flight", name)
	}
	return fn(args)
}
