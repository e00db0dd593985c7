package data

import (
	"fmt"
	"sort"
	"strings"

	"consolidation/internal/engine"
)

// TwitterConfig sizes the Twitter dataset. The paper uses 31152 real
// tweets in English, Spanish and Portuguese from the IBM Many Eyes
// database.
type TwitterConfig struct {
	Tweets int
	Seed   int64
}

// DefaultTwitterConfig matches the paper's cardinality.
func DefaultTwitterConfig() TwitterConfig {
	return TwitterConfig{Tweets: 31152, Seed: 4}
}

// Sentiment and topic cardinalities of the generated corpus.
const (
	TwitterSentiments = 6
	TwitterTopics     = 8
	TwitterLanguages  = 3
)

// Twitter is the tweet dataset: one record per tweet, stored as a token
// stream. Smiley counting and sentiment/topic scoring scan the tokens,
// mirroring the string analysis the paper's UDFs perform. Tweet metadata
// (language, author follower count) is additionally kept in columnar form,
// so the cheap accessors answer from a column load without decoding the
// token stream — the storage-layer shape predicate pushdown exploits.
//
// Library functions:
//
//	smileyCount(r)       — number of smiley tokens
//	sentimentScore(r, s) — affinity of the tweet with sentiment s (0-based)
//	topicScore(r, t)     — affinity of the tweet with topic t (0-based)
//	languageOf(r)        — language id (0..2); columnar, lite-safe
//	followerCount(r)     — author follower count; columnar, lite-safe
type Twitter struct {
	cfg     TwitterConfig
	encoded []string // per-tweet "lang|tok,tok,…"
	costs   costTable

	// sentTab/topicTab are per-token affinity lookup tables, built once at
	// generation time from affinity() and shared read-only across clones:
	// sentTab[tok*TwitterSentiments+s] == affinity(tok, s, TwitterSentiments)
	// and topicTab[tok*TwitterTopics+t] == affinity(tok+7, t, TwitterTopics).
	// Scoring scans then cost one table load per token instead of a hash
	// and two divisions.
	sentTab  []int8
	topicTab []int8

	// langs/followers are read-only metadata columns shared across clones;
	// sortedFollowers supports FollowerQuantile.
	langs           []int64
	followers       []int64
	sortedFollowers []int64

	// curIdx is the selected record (−1 when none); valid after either
	// SetRecord or SetRecordLite. The token fields below are valid only
	// after a full SetRecord (ok == true). inLiteSpan marks that a
	// SetRecordLiteSpan already invalidated the full decode for the
	// current guard sweep, so per-record lite selection is a bare index
	// store.
	curIdx     int
	cur        []int64
	ok         bool
	inLiteSpan bool
}

// Token-space layout: ids below smileyBase are words; [smileyBase,
// smileyBase+16) are smileys.
const (
	twitterVocab = 4000
	smileyBase   = twitterVocab
	smileyKinds  = 16
)

// GenTwitter builds the dataset.
func GenTwitter(cfg TwitterConfig) *Twitter {
	rng := newRNG(cfg.Seed)
	t := &Twitter{
		cfg: cfg,
		costs: costTable{
			"smileyCount":    80,
			"sentimentScore": 150,
			"topicScore":     150,
			"languageOf":     4,
			"followerCount":  4,
		},
		curIdx: -1,
	}
	for i := 0; i < cfg.Tweets; i++ {
		langID := int64(rng.Intn(TwitterLanguages))
		length := 4 + rng.Intn(24)
		toks := make([]int64, length)
		for j := range toks {
			if rng.Intn(8) == 0 {
				toks[j] = int64(smileyBase + rng.Intn(smileyKinds))
			} else {
				toks[j] = int64(rng.Intn(twitterVocab))
			}
		}
		t.encoded = append(t.encoded, encodeInts([]int64{langID})+"|"+encodeInts(toks))
		t.langs = append(t.langs, langID)
		// Follower counts come from a seeded hash, not the rng stream, so
		// adding the column leaves every previously generated record (and
		// every downstream verdict) byte-identical. Squaring a uniform draw
		// gives the heavy-tailed shape follower graphs have.
		u := splitmix64(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(i) + 1)
		v := int64(u % (1 << 20))
		t.followers = append(t.followers, (v*v)>>20)
	}
	t.sortedFollowers = append([]int64(nil), t.followers...)
	sort.Slice(t.sortedFollowers, func(a, b int) bool { return t.sortedFollowers[a] < t.sortedFollowers[b] })
	const ntok = twitterVocab + smileyKinds
	t.sentTab = make([]int8, ntok*TwitterSentiments)
	t.topicTab = make([]int8, ntok*TwitterTopics)
	for tok := int64(0); tok < ntok; tok++ {
		for s := int64(0); s < TwitterSentiments; s++ {
			t.sentTab[tok*TwitterSentiments+s] = int8(affinity(tok, s, TwitterSentiments))
		}
		for tp := int64(0); tp < TwitterTopics; tp++ {
			t.topicTab[tok*TwitterTopics+tp] = int8(affinity(tok+7, tp, TwitterTopics))
		}
	}
	return t
}

// NumRecords implements engine.RecordLibrary.
func (t *Twitter) NumRecords() int { return len(t.encoded) }

// SetRecord implements engine.RecordLibrary. A record without the '|'
// separator selects nothing: every accessor then returns its "no record
// selected" error.
func (t *Twitter) SetRecord(i int) {
	_, toks, ok := strings.Cut(t.encoded[i], "|")
	if ok {
		t.cur = decodeInts(toks, t.cur)
		t.curIdx = i
	} else {
		t.curIdx = -1
	}
	t.ok = ok
	t.inLiteSpan = false
}

// SetRecordLite implements engine.LiteRecordLibrary: it selects the record
// for the columnar metadata accessors without decoding the token stream.
// Functions priced above LiteCostBound keep failing until a full SetRecord.
// Inside a prepared lite span the full decode is already invalidated, so
// selection reduces to the index store.
func (t *Twitter) SetRecordLite(i int) {
	t.curIdx = i
	if !t.inLiteSpan {
		t.ok = false
	}
}

// SetRecordLiteSpan implements engine.LiteSpanLibrary: the batched lite
// decode. The columnar metadata needs no per-record preparation, so the
// whole span amounts to invalidating the full decode once; the engine's
// per-record SetRecordLite calls inside the span then skip that store. A
// subsequent SetRecord (the admitted path's full decode) ends the span.
func (t *Twitter) SetRecordLiteSpan(lo, hi int) {
	t.curIdx = -1
	t.ok = false
	t.inLiteSpan = true
}

// LiteCostBound implements engine.LiteRecordLibrary: languageOf and
// followerCount (cost 4) answer from columns and are valid after
// SetRecordLite; the token-scanning functions (cost ≥ 80) are not.
func (t *Twitter) LiteCostBound() int64 { return 8 }

// FollowerQuantile returns the smallest follower count f such that at least
// a p fraction of tweets have followerCount ≤ f; workload generators use it
// to calibrate admission-clause selectivity.
func (t *Twitter) FollowerQuantile(p float64) int64 {
	n := len(t.sortedFollowers)
	if n == 0 {
		return 0
	}
	i := int(p * float64(n-1))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return t.sortedFollowers[i]
}

// Clone implements engine.RecordLibrary.
func (t *Twitter) Clone() engine.RecordLibrary {
	return &Twitter{cfg: t.cfg, encoded: t.encoded, costs: t.costs,
		sentTab: t.sentTab, topicTab: t.topicTab,
		langs: t.langs, followers: t.followers, sortedFollowers: t.sortedFollowers,
		curIdx: -1}
}

// FuncCost implements lang.FuncCoster.
func (t *Twitter) FuncCost(name string) (int64, bool) { return t.costs.FuncCost(name) }

// affinity is a deterministic token→(class, weight) signal used for both
// sentiment and topic scoring.
func affinity(tok, class, space int64) int64 {
	h := uint64(tok)*2654435761 + uint64(class)*40503
	if int64(h%uint64(space)) == class%space {
		return int64(h%7) + 1
	}
	return 0
}

func (t *Twitter) smileyCount(args []int64) (int64, error) {
	if !t.ok {
		return 0, errNoRecord("twitter")
	}
	var c int64
	for _, tok := range t.cur {
		if tok >= smileyBase {
			c++
		}
	}
	return c, nil
}

func (t *Twitter) sentimentScore(args []int64) (int64, error) {
	if !t.ok {
		return 0, errNoRecord("twitter")
	}
	if len(args) != 2 {
		return 0, errArity("sentimentScore", 2, len(args))
	}
	s := args[1]
	if s < 0 || s >= TwitterSentiments {
		return 0, fmt.Errorf("data: twitter: sentiment %d out of range", s)
	}
	tab := t.sentTab[s:]
	var score int64
	for _, tok := range t.cur {
		score += int64(tab[tok*TwitterSentiments])
	}
	return score, nil
}

func (t *Twitter) topicScore(args []int64) (int64, error) {
	if !t.ok {
		return 0, errNoRecord("twitter")
	}
	if len(args) != 2 {
		return 0, errArity("topicScore", 2, len(args))
	}
	tp := args[1]
	if tp < 0 || tp >= TwitterTopics {
		return 0, fmt.Errorf("data: twitter: topic %d out of range", tp)
	}
	tab := t.topicTab[tp:]
	var score int64
	for _, tok := range t.cur {
		score += int64(tab[tok*TwitterTopics])
	}
	return score, nil
}

func (t *Twitter) languageOf(args []int64) (int64, error) {
	if t.curIdx < 0 {
		return 0, errNoRecord("twitter")
	}
	return t.langs[t.curIdx], nil
}

func (t *Twitter) followerCount(args []int64) (int64, error) {
	if t.curIdx < 0 {
		return 0, errNoRecord("twitter")
	}
	return t.followers[t.curIdx], nil
}

// Resolve implements lang.DirectCaller, binding call sites once so the VM
// skips the per-call name dispatch.
func (t *Twitter) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "smileyCount":
		return t.smileyCount, true
	case "sentimentScore":
		return t.sentimentScore, true
	case "topicScore":
		return t.topicScore, true
	case "languageOf":
		return t.languageOf, true
	case "followerCount":
		return t.followerCount, true
	}
	return nil, false
}

// Call implements lang.Library.
func (t *Twitter) Call(name string, args []int64) (int64, error) {
	fn, ok := t.Resolve(name)
	if !ok {
		return 0, errNoFunc("twitter", name)
	}
	return fn(args)
}
