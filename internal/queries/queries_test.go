package queries

import (
	"testing"

	"consolidation/internal/lang"
)

func TestAllFamiliesGenerateValidUDFs(t *testing.T) {
	for _, d := range Domains() {
		for _, f := range Families(d) {
			progs, err := Gen(d, f, 20, 42)
			if err != nil {
				t.Fatalf("%s/%s: %v", d, f, err)
			}
			if len(progs) != 20 {
				t.Fatalf("%s/%s: got %d programs", d, f, len(progs))
			}
			for _, p := range progs {
				if len(p.Params) != 1 || p.Params[0] != "r" {
					t.Fatalf("%s/%s: %s has params %v", d, f, p.Name, p.Params)
				}
				ids := lang.NotifyIDs(p.Body)
				if len(ids) != 1 || !ids[1] {
					t.Fatalf("%s/%s: %s notifies %v", d, f, p.Name, ids)
				}
				// The program must re-parse from its formatted text.
				if _, err := lang.Parse(lang.Format(p)); err != nil {
					t.Fatalf("%s/%s: format does not re-parse: %v", d, f, err)
				}
			}
		}
	}
}

func TestGenIsDeterministic(t *testing.T) {
	a := MustGen("stock", "BC", 10, 7)
	b := MustGen("stock", "BC", 10, 7)
	for i := range a {
		if lang.Format(a[i]) != lang.Format(b[i]) {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	c := MustGen("stock", "BC", 10, 8)
	same := true
	for i := range a {
		if lang.Format(a[i]) != lang.Format(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestUnknownDomainAndFamily(t *testing.T) {
	if _, err := Gen("bogus", "Q1", 5, 1); err == nil {
		t.Error("unknown domain should fail")
	}
	if _, err := Gen("weather", "Q9", 5, 1); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := Gen("news", "Mix", 5, 1); err != nil {
		t.Errorf("news Mix (the Figure 10 workload) should generate: %v", err)
	}
}

func TestFamiliesAndDescriptions(t *testing.T) {
	if len(Families("weather")) != 5 || len(Families("stock")) != 5 {
		t.Fatal("family lists wrong")
	}
}

func TestParameterDiversity(t *testing.T) {
	// Fifty Q1 weather queries must not all share the same parameters.
	progs := MustGen("weather", "Q1", 50, 3)
	texts := map[string]bool{}
	for _, p := range progs {
		texts[lang.FormatStmt(p.Body)] = true
	}
	if len(texts) < 10 {
		t.Fatalf("only %d distinct queries among 50", len(texts))
	}
}
