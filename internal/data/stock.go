package data

import (
	"fmt"

	"consolidation/internal/engine"
)

// StockConfig sizes the stock dataset. The paper uses the historical
// Nasdaq-100 daily prices from Yahoo Finance: 377423 daily rows; we model
// that as ~100 companies with ~3774 trading days each.
type StockConfig struct {
	Companies int
	Days      int
	Seed      int64
}

// DefaultStockConfig matches the paper's row count (100 × 3774 ≈ 377 400).
func DefaultStockConfig() StockConfig {
	return StockConfig{Companies: 100, Days: 3774, Seed: 5}
}

// Stock is the stock dataset: one record per company holding its daily
// series (prices in cents). Queries aggregate over days with loops in the
// UDF itself, which is where loop fusion pays off.
//
// Library functions:
//
//	dayCount(r)    — number of trading days
//	volumeAt(r, i) — volume on day i (0-based)
//	highAt(r, i)   — daily high price (cents)
//	closeAt(r, i)  — close price (cents)
type Stock struct {
	cfg     StockConfig
	encoded []string // per-company "v0,h0,c0,v1,h1,c1,…"
	costs   costTable

	cur []int64
	ok  bool
}

// GenStock builds the dataset with a random-walk price model.
func GenStock(cfg StockConfig) *Stock {
	rng := newRNG(cfg.Seed)
	s := &Stock{
		cfg: cfg,
		costs: costTable{
			// Costs model a managed-runtime record accessor (dispatch,
			// bounds check, field load), the overhead the paper's C# UDFs
			// pay per access.
			"dayCount": 10,
			"volumeAt": 25,
			"highAt":   25,
			"closeAt":  25,
		},
	}
	for c := 0; c < cfg.Companies; c++ {
		price := int64(1000 + rng.Intn(40000))
		baseVol := int64(10000 + rng.Intn(2000000))
		row := make([]int64, 0, cfg.Days*3)
		for d := 0; d < cfg.Days; d++ {
			price += int64(rng.Intn(201) - 100)
			if price < 100 {
				price = 100
			}
			high := price + int64(rng.Intn(120))
			vol := baseVol + int64(rng.Intn(int(baseVol/2+1)))
			row = append(row, vol, high, price)
		}
		s.encoded = append(s.encoded, encodeInts(row))
	}
	return s
}

// NumRecords implements engine.RecordLibrary.
func (s *Stock) NumRecords() int { return len(s.encoded) }

// SetRecord implements engine.RecordLibrary.
func (s *Stock) SetRecord(i int) {
	s.cur = decodeInts(s.encoded[i], s.cur)
	s.ok = true
}

// Clone implements engine.RecordLibrary.
func (s *Stock) Clone() engine.RecordLibrary {
	return &Stock{cfg: s.cfg, encoded: s.encoded, costs: s.costs}
}

// FuncCost implements lang.FuncCoster.
func (s *Stock) FuncCost(name string) (int64, bool) { return s.costs.FuncCost(name) }

func (s *Stock) dayCount(args []int64) (int64, error) {
	if !s.ok {
		return 0, errNoRecord("stock")
	}
	return int64(len(s.cur) / 3), nil
}

// at answers volumeAt, highAt and closeAt: column col of day args[1].
func (s *Stock) at(name string, col int64, args []int64) (int64, error) {
	if !s.ok {
		return 0, errNoRecord("stock")
	}
	if len(args) != 2 {
		return 0, errArity(name, 2, len(args))
	}
	i := args[1]
	if i < 0 || i >= int64(len(s.cur)/3) {
		return 0, fmt.Errorf("data: stock: day %d out of range", i)
	}
	return s.cur[i*3+col], nil
}

func (s *Stock) volumeAt(args []int64) (int64, error) { return s.at("volumeAt", 0, args) }
func (s *Stock) highAt(args []int64) (int64, error)   { return s.at("highAt", 1, args) }
func (s *Stock) closeAt(args []int64) (int64, error)  { return s.at("closeAt", 2, args) }

// Resolve implements lang.DirectCaller.
func (s *Stock) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "dayCount":
		return s.dayCount, true
	case "volumeAt":
		return s.volumeAt, true
	case "highAt":
		return s.highAt, true
	case "closeAt":
		return s.closeAt, true
	}
	return nil, false
}

// Call implements lang.Library.
func (s *Stock) Call(name string, args []int64) (int64, error) {
	fn, ok := s.Resolve(name)
	if !ok {
		return 0, errNoFunc("stock", name)
	}
	return fn(args)
}
