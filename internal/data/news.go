package data

import (
	"fmt"
	"math"

	"consolidation/internal/engine"
)

// NewsConfig sizes the news dataset. The paper uses the Reuters-21578
// collection: 19043 English articles.
type NewsConfig struct {
	Articles  int
	VocabSize int
	Seed      int64
}

// DefaultNewsConfig matches the Reuters-21578 cardinality.
func DefaultNewsConfig() NewsConfig {
	return NewsConfig{Articles: 19043, VocabSize: 5000, Seed: 3}
}

// News is the news dataset: one record per article; words are vocabulary
// identifiers drawn from a Zipf-like distribution, each with a fixed
// length. Functions that scan the article really scan it, so wall-clock
// time tracks the declared costs.
//
// Library functions:
//
//	containsWord(r, w) — 1 if word id w occurs in the article, else 0
//	wordCount(r)       — number of words
//	wordLen(r, i)      — length of the i-th word (0-based)
//	sumWordLen(r)      — total character count
type News struct {
	cfg      NewsConfig
	wordLens []int64  // vocabulary: id → length
	encoded  []string // per-article comma-joined word ids
	costs    costTable

	cur []int64
	ok  bool
}

// GenNews builds the dataset.
func GenNews(cfg NewsConfig) *News {
	rng := newRNG(cfg.Seed)
	n := &News{
		cfg: cfg,
		costs: costTable{
			"containsWord": 300, // full scan of a typical article
			"wordCount":    4,
			"wordLen":      6,
			"sumWordLen":   300,
		},
	}
	n.wordLens = make([]int64, cfg.VocabSize)
	for i := range n.wordLens {
		n.wordLens[i] = int64(2 + rng.Intn(12))
	}
	for a := 0; a < cfg.Articles; a++ {
		length := 60 + rng.Intn(220)
		words := make([]int64, length)
		for i := range words {
			// Zipf-like skew: low ids are frequent.
			u := rng.Float64()
			words[i] = int64(math.Pow(u, 3) * float64(cfg.VocabSize))
		}
		n.encoded = append(n.encoded, encodeInts(words))
	}
	return n
}

// NumRecords implements engine.RecordLibrary.
func (n *News) NumRecords() int { return len(n.encoded) }

// SetRecord implements engine.RecordLibrary.
func (n *News) SetRecord(i int) {
	n.cur = decodeInts(n.encoded[i], n.cur)
	n.ok = true
}

// Clone implements engine.RecordLibrary.
func (n *News) Clone() engine.RecordLibrary {
	return &News{cfg: n.cfg, wordLens: n.wordLens, encoded: n.encoded, costs: n.costs}
}

// FuncCost implements lang.FuncCoster.
func (n *News) FuncCost(name string) (int64, bool) { return n.costs.FuncCost(name) }

func (n *News) containsWord(args []int64) (int64, error) {
	if !n.ok {
		return 0, errNoRecord("news")
	}
	if len(args) != 2 {
		return 0, errArity("containsWord", 2, len(args))
	}
	for _, w := range n.cur {
		if w == args[1] {
			return 1, nil
		}
	}
	return 0, nil
}

func (n *News) wordCount(args []int64) (int64, error) {
	if !n.ok {
		return 0, errNoRecord("news")
	}
	return int64(len(n.cur)), nil
}

func (n *News) wordLen(args []int64) (int64, error) {
	if !n.ok {
		return 0, errNoRecord("news")
	}
	if len(args) != 2 {
		return 0, errArity("wordLen", 2, len(args))
	}
	i := args[1]
	if i < 0 || i >= int64(len(n.cur)) {
		return 0, fmt.Errorf("data: news: word index %d out of range", i)
	}
	return n.wordLens[n.cur[i]], nil
}

func (n *News) sumWordLen(args []int64) (int64, error) {
	if !n.ok {
		return 0, errNoRecord("news")
	}
	var s int64
	for _, w := range n.cur {
		s += n.wordLens[w]
	}
	return s, nil
}

// Resolve implements lang.DirectCaller.
func (n *News) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "containsWord":
		return n.containsWord, true
	case "wordCount":
		return n.wordCount, true
	case "wordLen":
		return n.wordLen, true
	case "sumWordLen":
		return n.sumWordLen, true
	}
	return nil, false
}

// Call implements lang.Library.
func (n *News) Call(name string, args []int64) (int64, error) {
	fn, ok := n.Resolve(name)
	if !ok {
		return 0, errNoFunc("news", name)
	}
	return fn(args)
}
