// Package queries generates the parameterised UDF families of the paper's
// evaluation (Section 6.2): for each of the five data domains, several
// query families whose members differ only in parameters drawn from
// realistic distributions, plus the paper's Mix (random mixes of families)
// and BC (boolean combinations of family predicates) workloads.
//
// Every generated UDF takes the single record parameter r, notifies id 1
// exactly once (operators renumber ids per query), and binds library calls
// to locals in the style of the paper's examples, which is what exposes
// memoization to the consolidation calculus.
package queries

import (
	"fmt"
	"math/rand"
	"strings"

	"consolidation/internal/lang"
)

// Domains lists the five evaluation domains.
func Domains() []string {
	return []string{"weather", "flight", "news", "twitter", "stock"}
}

// Families lists the query families available in a domain, in the paper's
// order. The last entry is the domain's mixed workload ("Mix" for weather
// and flight, "BC" for news, twitter and stock).
func Families(domain string) []string {
	switch domain {
	case "weather":
		return []string{"Q1", "Q2", "Q3", "Q4", "Mix"}
	case "flight":
		return []string{"Q1", "Q2", "Q3", "Mix"}
	case "news", "twitter", "stock":
		// The paper plots BC (boolean combinations) in Figure 9 for these
		// domains; Mix (plain queries sampled across families, as in
		// Figure 10's News mixes) is also available.
		return []string{"Q1", "Q2", "Q3", "BC", "Mix"}
	}
	return nil
}

// template is one query family's generator: it emits a prelude and a
// boolean test over locals carrying the given prefix, with fresh parameters
// drawn from rng.
type template func(rng *rand.Rand, prefix string) (prelude, test string)

// Gen produces n UDFs from the given domain and family. Programs are named
// "<domain>_<family>_<i>".
func Gen(domain, family string, n int, seed int64) ([]*lang.Program, error) {
	tmpl, mix, err := lookup(domain, family)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	progs := make([]*lang.Program, n)
	for i := 0; i < n; i++ {
		var body string
		switch {
		case tmpl != nil:
			pre, test := tmpl(rng, "v")
			body = pre + "\nnotify 1 (" + test + ");"
		case mix != nil:
			body = mix(rng)
		}
		src := fmt.Sprintf("func %s_%s_%d(r) {\n%s\n}", domain, family, i, body)
		p, perr := lang.Parse(src)
		if perr != nil {
			return nil, fmt.Errorf("queries: generated UDF does not parse: %w\n%s", perr, src)
		}
		progs[i] = p
	}
	return progs, nil
}

// MustGen is Gen for tests and examples.
func MustGen(domain, family string, n int, seed int64) []*lang.Program {
	ps, err := Gen(domain, family, n, seed)
	if err != nil {
		panic(err)
	}
	return ps
}

func lookup(domain, family string) (template, func(*rand.Rand) string, error) {
	doms := map[string]map[string]template{
		"weather": {"Q1": weatherQ1, "Q2": weatherQ2, "Q3": weatherQ3, "Q4": weatherQ4},
		"flight":  {"Q1": flightQ1, "Q2": flightQ2, "Q3": flightQ3},
		"news":    {"Q1": newsQ1, "Q2": newsQ2, "Q3": newsQ3},
		"twitter": {"Q1": twitterQ1, "Q2": twitterQ2, "Q3": twitterQ3},
		"stock":   {"Q1": stockQ1, "Q2": stockQ2, "Q3": stockQ3},
	}
	fams, ok := doms[domain]
	if !ok {
		return nil, nil, fmt.Errorf("queries: unknown domain %q", domain)
	}
	if t, ok := fams[family]; ok {
		return t, nil, nil
	}
	switch family {
	case "Mix":
		// The paper's mixes: weather {15,15,10,10} over Q1..Q4; flight
		// {15,20,15} over Q1..Q3. Sampling with those weights generalises
		// both to any n.
		var pool []template
		var weights []int
		switch domain {
		case "weather":
			pool = []template{weatherQ1, weatherQ2, weatherQ3, weatherQ4}
			weights = []int{15, 15, 10, 10}
		case "flight":
			pool = []template{flightQ1, flightQ2, flightQ3}
			weights = []int{15, 20, 15}
		default:
			// Uniform mix over the domain's plain families (the News
			// mixes of Figure 10).
			for _, fam := range []string{"Q1", "Q2", "Q3"} {
				pool = append(pool, fams[fam])
				weights = append(weights, 1)
			}
		}
		return nil, func(rng *rand.Rand) string {
			t := weighted(rng, pool, weights)
			pre, test := t(rng, "v")
			return pre + "\nnotify 1 (" + test + ");"
		}, nil
	case "BC":
		// Boolean combinations of two UDFs from the domain's families.
		pool := []template{}
		for _, fam := range []string{"Q1", "Q2", "Q3"} {
			pool = append(pool, fams[fam])
		}
		return nil, func(rng *rand.Rand) string {
			t1 := pool[rng.Intn(len(pool))]
			t2 := pool[rng.Intn(len(pool))]
			pre1, test1 := t1(rng, "u")
			pre2, test2 := t2(rng, "w")
			op := "&&"
			if rng.Intn(2) == 0 {
				op = "||"
			}
			neg := ""
			if rng.Intn(4) == 0 {
				neg = "!"
			}
			return pre1 + "\n" + pre2 +
				fmt.Sprintf("\nnotify 1 (%s(%s) %s (%s));", neg, test1, op, test2)
		}, nil
	}
	return nil, nil, fmt.Errorf("queries: domain %q has no family %q", domain, family)
}

func weighted(rng *rand.Rand, pool []template, weights []int) template {
	total := 0
	for _, w := range weights {
		total += w
	}
	k := rng.Intn(total)
	for i, w := range weights {
		if k < w {
			return pool[i]
		}
		k -= w
	}
	return pool[len(pool)-1]
}

// ---- Weather (monthly/yearly average temperature and rainfall filters) ----

func weatherQ1(rng *rand.Rand, p string) (string, string) {
	m := 1 + rng.Intn(24)
	t := rng.Intn(12) - 1
	return fmt.Sprintf("%st := tempOfMonth(r, %d);", p, m),
		fmt.Sprintf("%st > %d", p, t)
}

func weatherQ2(rng *rand.Rand, p string) (string, string) {
	m := 1 + rng.Intn(24)
	mm := 5 + rng.Intn(90)
	return fmt.Sprintf("%sf := rainOfMonth(r, %d);", p, m),
		fmt.Sprintf("%sf < %d", p, mm)
}

// weatherQ3/Q4 aggregate a year with an explicit loop, the shape that
// exercises loop fusion across queries.
func weatherQ3(rng *rand.Rand, p string) (string, string) {
	off := rng.Intn(2) * 12
	t := rng.Intn(10) - 1
	pre := fmt.Sprintf(`%ss := 0;
%sm := 1;
while (%sm <= 12) {
  %st := tempOfMonth(r, %sm + %d);
  %ss := %ss + %st;
  %sm := %sm + 1;
}`, p, p, p, p, p, off, p, p, p, p, p)
	return pre, fmt.Sprintf("%ss > %d", p, t*12)
}

func weatherQ4(rng *rand.Rand, p string) (string, string) {
	off := rng.Intn(2) * 12
	mm := 5 + rng.Intn(80)
	pre := fmt.Sprintf(`%ss := 0;
%sm := 1;
while (%sm <= 12) {
  %sf := rainOfMonth(r, %sm + %d);
  %ss := %ss + %sf;
  %sm := %sm + 1;
}`, p, p, p, p, p, off, p, p, p, p, p)
	return pre, fmt.Sprintf("%ss < %d", p, mm*12)
}

// ---- Flight (direct/connecting flights and average prices) ----

// cityPair draws an origin/destination pair. The paper's motivating
// scenario is a popular price-monitoring application whose users hammer a
// handful of routes, so the distribution is skewed: roughly two thirds of
// queries target one of four popular routes, the rest are uniform.
func cityPair(rng *rand.Rand) (int, int) {
	popular := [][2]int{{0, 1}, {2, 5}, {1, 3}, {7, 2}}
	if rng.Intn(3) < 2 {
		p := popular[rng.Intn(len(popular))]
		return p[0], p[1]
	}
	c1 := rng.Intn(10)
	c2 := rng.Intn(10)
	if c2 == c1 {
		c2 = (c1 + 1) % 10
	}
	return c1, c2
}

func flightQ1(rng *rand.Rand, p string) (string, string) {
	c1, c2 := cityPair(rng)
	price := 150 + rng.Intn(400)
	return fmt.Sprintf("%sp := directPrice(r, %d, %d);", p, c1, c2),
		fmt.Sprintf("%sp > 0 && %sp < %d", p, p, price)
}

func flightQ2(rng *rand.Rand, p string) (string, string) {
	c1, c2 := cityPair(rng)
	price := 200 + rng.Intn(500)
	pre := fmt.Sprintf(`%sbest := 1000000;
%sm := 0;
while (%sm < 10) {
  %sp := connPrice(r, %d, %sm, %d);
  if (%sp > 0 && %sp < %sbest) { %sbest := %sp; }
  %sm := %sm + 1;
}`, p, p, p, p, c1, p, c2, p, p, p, p, p, p, p)
	return pre, fmt.Sprintf("%sbest < %d", p, price)
}

func flightQ3(rng *rand.Rand, p string) (string, string) {
	c1, c2 := cityPair(rng)
	price := 150 + rng.Intn(400)
	pre := fmt.Sprintf(`%ss := 0;
%sd := 0;
while (%sd < 15) {
  %sp := dayPrice(r, %d, %d, %sd);
  if (%sp > 0) { %ss := %ss + %sp; }
  %sd := %sd + 1;
}`, p, p, p, p, c1, c2, p, p, p, p, p, p, p)
	return pre, fmt.Sprintf("%ss < %d", p, price*15)
}

// ---- News (word containment, average/maximum word length) ----

// newsWords is the paper's "list of specified words": query parameters are
// drawn from a small set, so many queries coincide or overlap.
var newsWords = []int{3, 7, 12, 19, 25, 33, 48, 61, 77, 90, 120, 155, 201, 260, 333, 420, 515, 640, 780, 950}

func newsQ1(rng *rand.Rand, p string) (string, string) {
	w := newsWords[rng.Intn(len(newsWords))]
	return fmt.Sprintf("%sc := containsWord(r, %d);", p, w),
		fmt.Sprintf("%sc == 1", p)
}

func newsQ2(rng *rand.Rand, p string) (string, string) {
	l := 4 + rng.Intn(5)
	pre := fmt.Sprintf("%sn := wordCount(r);\n%ss := sumWordLen(r);", p, p)
	return pre, fmt.Sprintf("%ss > %d * %sn", p, l, p)
}

func newsQ3(rng *rand.Rand, p string) (string, string) {
	l := 8 + rng.Intn(6)
	pre := fmt.Sprintf(`%sn := wordCount(r);
%si := 0;
%sm := 0;
while (%si < %sn) {
  %sl := wordLen(r, %si);
  if (%sm < %sl) { %sm := %sl; }
  %si := %si + 1;
}`, p, p, p, p, p, p, p, p, p, p, p, p, p)
	return pre, fmt.Sprintf("%sm >= %d", p, l)
}

// ---- Twitter (smileys, sentiment, topics) ----

func twitterQ1(rng *rand.Rand, p string) (string, string) {
	k := 1 + rng.Intn(4)
	return fmt.Sprintf("%sc := smileyCount(r);", p),
		fmt.Sprintf("%sc >= %d", p, k)
}

func twitterQ2(rng *rand.Rand, p string) (string, string) {
	s := rng.Intn(6)
	t := 3 + rng.Intn(12)
	return fmt.Sprintf("%ss := sentimentScore(r, %d);", p, s),
		fmt.Sprintf("%ss > %d", p, t)
}

func twitterQ3(rng *rand.Rand, p string) (string, string) {
	tp := rng.Intn(8)
	t := 3 + rng.Intn(10)
	return fmt.Sprintf("%st := topicScore(r, %d);", p, tp),
		fmt.Sprintf("%st > %d", p, t)
}

// ---- Stock (average volume, maximum value, standard deviation) ----

func stockQ1(rng *rand.Rand, p string) (string, string) {
	v := 200000 + rng.Intn(2000000)
	pre := withPrefix(`@n := dayCount(r);
@i := 0;
@s := 0;
while (@i < @n) {
  @v := volumeAt(r, @i);
  @s := @s + @v;
  @i := @i + 1;
}`, p)
	return pre, withPrefix(fmt.Sprintf("@s > %d * @n", v), p)
}

func stockQ2(rng *rand.Rand, p string) (string, string) {
	v := 10000 + rng.Intn(40000)
	pre := fmt.Sprintf(`%sn := dayCount(r);
%si := 0;
%sm := 0;
while (%si < %sn) {
  %sh := highAt(r, %si);
  if (%sm < %sh) { %sm := %sh; }
  %si := %si + 1;
}`, p, p, p, p, p, p, p, p, p, p, p, p, p)
	return pre, fmt.Sprintf("%sm > %d", p, v)
}

func stockQ3(rng *rand.Rand, p string) (string, string) {
	d := 500 + rng.Intn(4000)
	pre := withPrefix(`@n := dayCount(r);
@i := 0;
@s := 0;
@q := 0;
while (@i < @n) {
  @c := closeAt(r, @i);
  @s := @s + @c;
  @q := @q + @c * @c;
  @i := @i + 1;
}`, p)
	// Variance test without division: n·Σc² − (Σc)² > d²·n².
	return pre, withPrefix(fmt.Sprintf("@n * @q - @s * @s > %d * %d * @n * @n", d, d), p)
}

// withPrefix instantiates a template whose local variables are written
// @name with the given prefix.
func withPrefix(tmpl, p string) string {
	return strings.ReplaceAll(tmpl, "@", p)
}
