package main

import (
	"bytes"
	"strings"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/engine"
	"consolidation/internal/queries"
)

// TestAllExperimentsSmoke runs every Figure 9 experiment at reduced scale
// and UDF count, checking that whereConsolidated agrees with whereMany and
// never does more UDF work.
func TestAllExperimentsSmoke(t *testing.T) {
	for _, d := range queries.Domains() {
		for _, f := range queries.Families(d) {
			t.Run(d+"/"+f, func(t *testing.T) {
				o, err := run(d, f, 12, 0.01, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				t.Log(o.row())
				if !o.agree {
					t.Error("operators disagree")
				}
				if o.cons.UDFCost > o.many.UDFCost {
					t.Errorf("consolidated UDF cost %d exceeds sequential %d", o.cons.UDFCost, o.many.UDFCost)
				}
			})
		}
	}
}

// TestFigure9Shape asserts the qualitative claims of Figure 9 at reduced
// scale: consolidation reduces UDF cost on every family, and single-call
// families with heavy sharing beat 2x.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check is seconds long")
	}
	strong := map[string]bool{"twitter/Q1": true, "news/Q2": true}
	for _, c := range []struct{ domain, family string }{
		{"twitter", "Q1"}, {"news", "Q2"}, {"weather", "Q1"}, {"stock", "Q2"},
	} {
		o, err := run(c.domain, c.family, 30, 0.01, 2, 0)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.domain, c.family, err)
		}
		if !o.agree {
			t.Fatalf("%s/%s: operators disagree", c.domain, c.family)
		}
		if o.cost <= 1.0 {
			t.Errorf("%s/%s: no cost win (%.2f)", c.domain, c.family, o.cost)
		}
		if strong[c.domain+"/"+c.family] && o.cost < 2.0 {
			t.Errorf("%s/%s: expected ≥2x cost win, got %.2f", c.domain, c.family, o.cost)
		}
	}
}

// TestFigure10Shape asserts Figure 10's scalability claim: whereMany UDF
// cost grows linearly with the number of UDFs while whereConsolidated
// grows much slower.
func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check is seconds long")
	}
	costs := map[int][2]int64{}
	for _, n := range []int{10, 40} {
		o, err := run("news", "Q2", n, 0.005, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !o.agree {
			t.Fatalf("n=%d: operators disagree", n)
		}
		costs[n] = [2]int64{o.many.UDFCost, o.cons.UDFCost}
	}
	manyGrowth := float64(costs[40][0]) / float64(costs[10][0])
	consGrowth := float64(costs[40][1]) / float64(costs[10][1])
	if manyGrowth < 3.5 {
		t.Errorf("whereMany cost should grow ~linearly: x%.2f from 10 to 40 UDFs", manyGrowth)
	}
	if consGrowth > manyGrowth/1.5 {
		t.Errorf("whereConsolidated should grow much slower: cons x%.2f vs many x%.2f", consGrowth, manyGrowth)
	}
}

// TestLatencyShape asserts the Section 8 measurement: consolidation
// reduces the mean notification latency.
func TestLatencyShape(t *testing.T) {
	o, err := run("twitter", "Q2", 10, 0.005, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	many, cons := meanLatency(&o.many), meanLatency(&o.cons)
	if cons >= many {
		t.Errorf("mean notification latency should improve: %.1f vs %.1f", cons, many)
	}
}

// TestAblations holds the two design choices DESIGN.md calls out against
// their off switches on a weather Mix batch: dead-store elimination
// (Options.NoDCE) and If 3/4 cross-embedding (MaxEmbedSize = 1 never
// embeds, leaving If 5 only). Either way the merged program selects what
// whereMany selects, and the default is never costlier.
func TestAblations(t *testing.T) {
	ds, err := dataset("weather", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	udfs := queries.MustGen("weather", "Mix", 20, 5)
	many, err := engine.WhereMany(ds, udfs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(name string, opts consolidate.Options) (cost int64, size int) {
		opts.FuncCoster = ds
		cons, err := engine.WhereConsolidated(ds, udfs, opts, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !engine.SameResults(many, &cons.Result) {
			t.Errorf("%s: operators disagree", name)
		}
		return cons.UDFCost, cons.Multi.OutputSize
	}
	noDCE, noEmbed := consolidate.DefaultOptions(), consolidate.DefaultOptions()
	noDCE.NoDCE = true
	noEmbed.MaxEmbedSize = 1
	cost, size := measure("default", consolidate.DefaultOptions())
	for _, a := range []struct {
		name string
		opts consolidate.Options
	}{{"NoDCE", noDCE}, {"MaxEmbedSize=1", noEmbed}} {
		c, s := measure(a.name, a.opts)
		t.Logf("%s: cost ×%.3f, size ×%.3f of the default (%d, %d nodes)",
			a.name, float64(c)/float64(cost), float64(s)/float64(size), cost, size)
		if cost > c {
			t.Errorf("default cost %d exceeds %s cost %d", cost, a.name, c)
		}
	}
}

// TestUsageErrors pins the argument check: an unknown domain, family or
// mode is exit status 2 with the valid names on stderr and no table.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"9", "-domain", "nosuch"}, queries.Domains()},
		{[]string{"9", "-domain", "weather", "-family", "BC"}, queries.Families("weather")},
		{[]string{"9", "-family", "nosuch"}, []string{"Q4", "BC", "Mix"}},
		{[]string{"latency", "-domain", "nosuch"}, queries.Domains()},
		{[]string{"latency", "-family", "all"}, nil},
		{[]string{"10", "-counts", "10,x"}, nil},
		{[]string{"9", "-n", "0"}, nil},
		{[]string{"11"}, nil},
		{nil, nil},
	} {
		var out, errw bytes.Buffer
		if got := figures(c.args, &out, &errw); got != 2 {
			t.Errorf("figures %v = %d, want 2", c.args, got)
		}
		if out.Len() > 0 {
			t.Errorf("figures %v printed a table:\n%s", c.args, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(errw.String(), w) {
				t.Errorf("figures %v: stderr does not list %q:\n%s", c.args, w, errw.String())
			}
		}
	}
}

// TestModes runs each mode once at toy size: exit status 0 and one ok=true
// row per experiment.
func TestModes(t *testing.T) {
	for _, c := range []struct {
		args []string
		rows int
	}{
		{[]string{"9", "-domain", "twitter", "-n", "4", "-scale", "0.01"}, len(queries.Families("twitter"))},
		{[]string{"10", "-counts", "3,5", "-scale", "0.01"}, 2},
		{[]string{"latency", "-n", "4", "-scale", "0.01"}, 1},
	} {
		var out, errw bytes.Buffer
		if got := figures(c.args, &out, &errw); got != 0 {
			t.Fatalf("figures %v = %d, want 0\n%s", c.args, got, errw.String())
		}
		if got := strings.Count(out.String(), "ok=true"); got != c.rows {
			t.Errorf("figures %v: %d ok=true rows, want %d:\n%s", c.args, got, c.rows, out.String())
		}
	}
}
