package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parserCorpus loads the checked-in seed corpus: one program source per
// .prog file under testdata/corpus.
func parserCorpus(tb testing.TB) []string {
	files, err := filepath.Glob("testdata/corpus/*.prog")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no parser seed corpus under testdata/corpus: %v", err)
	}
	out := make([]string, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = string(src)
	}
	return out
}

// roundTrip asserts the parser/printer fixpoint on one source: if src
// parses, Format must re-parse to a structurally equal program, and
// formatting must be idempotent from then on. The first parse may
// desugar (>, >=, !=, non-constant notify), so the property is stated on
// the parsed AST, not the raw text.
func roundTrip(t *testing.T, src string) {
	p, err := Parse(src)
	if err != nil {
		return // invalid inputs are fine; only accepted ones must round-trip
	}
	text := Format(p)
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("formatted program does not re-parse: %v\nsource:\n%s\nformatted:\n%s", err, src, text)
	}
	if q.Name != p.Name || len(q.Params) != len(p.Params) {
		t.Fatalf("round-trip changed the signature: %q(%v) vs %q(%v)", p.Name, p.Params, q.Name, q.Params)
	}
	for i := range p.Params {
		if p.Params[i] != q.Params[i] {
			t.Fatalf("round-trip changed parameter %d: %q vs %q", i, p.Params[i], q.Params[i])
		}
	}
	if !EqualStmt(p.Body, q.Body) {
		t.Fatalf("round-trip changed the AST:\nsource:\n%s\nfirst:\n%s\nsecond:\n%s", src, text, Format(q))
	}
	if again := Format(q); again != text {
		t.Fatalf("Format is not idempotent:\nfirst:\n%s\nsecond:\n%s", text, again)
	}
	if r := Rewrite(p.Body, func(n Node) (Node, bool) { return n, true }); !EqualStmt(r, p.Body) {
		t.Fatalf("identity Rewrite changed the AST:\nsource:\n%s\nrewritten:\n%s", text, FormatStmt(r))
	}
	// A prefix is an injective renaming; stripping it is its inverse.
	renamed := RenameVars(p.Body, func(v string) string { return "r_" + v })
	if back := RenameVars(renamed, func(v string) string { return strings.TrimPrefix(v, "r_") }); !EqualStmt(back, p.Body) {
		t.Fatalf("RenameVars and its inverse changed the AST:\nsource:\n%s\nrenamed:\n%s\nback:\n%s", text, FormatStmt(renamed), FormatStmt(back))
	}
}

// FuzzParserRoundTrip fuzzes arbitrary source text through parse → format
// → parse, asserting the printer emits exactly the language the parser
// accepts and that no information is lost in between.
func FuzzParserRoundTrip(f *testing.F) {
	for _, src := range parserCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return // deep nesting in megabyte inputs only tests the stack
		}
		roundTrip(t, src)
	})
}

// TestParserRoundTripCorpus replays the seed corpus deterministically, so
// plain `go test` exercises every checked-in reproducer without the fuzz
// engine.
func TestParserRoundTripCorpus(t *testing.T) {
	for _, src := range parserCorpus(t) {
		roundTrip(t, src)
	}
}

// aggCorpus loads the windowed-aggregation seed corpus: one aggregation
// source per .agg file under testdata/corpus.
func aggCorpus(tb testing.TB) []string {
	files, err := filepath.Glob("testdata/corpus/*.agg")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no aggregation seed corpus under testdata/corpus: %v", err)
	}
	out := make([]string, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = string(src)
	}
	return out
}

// aggRoundTrip asserts the aggregation parser/printer fixpoint on one
// source, mirroring roundTrip for the agg declaration grammar (window
// specs, accumulator declarations, fold and emit blocks).
func aggRoundTrip(t *testing.T, src string) {
	a, err := ParseAgg(src)
	if err != nil {
		return // invalid inputs are fine; only accepted ones must round-trip
	}
	text := FormatAgg(a)
	b, err := ParseAgg(text)
	if err != nil {
		t.Fatalf("formatted aggregation does not re-parse: %v\nsource:\n%s\nformatted:\n%s", err, src, text)
	}
	if !EqualAgg(a, b) {
		t.Fatalf("round-trip changed the aggregation:\nsource:\n%s\nfirst:\n%s\nsecond:\n%s", src, text, FormatAgg(b))
	}
	if again := FormatAgg(b); again != text {
		t.Fatalf("FormatAgg is not idempotent:\nfirst:\n%s\nsecond:\n%s", text, again)
	}
}

// FuzzAggParserRoundTrip fuzzes arbitrary source text through the
// aggregation grammar's parse → format → parse fixpoint.
func FuzzAggParserRoundTrip(f *testing.F) {
	for _, src := range aggCorpus(f) {
		f.Add(src)
	}
	for _, src := range parserCorpus(f) {
		f.Add(src) // plain-program sources probe the agg parser's rejects
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		aggRoundTrip(t, src)
	})
}

// TestAggRoundTripCorpus replays the aggregation seed corpus without the
// fuzz engine.
func TestAggRoundTripCorpus(t *testing.T) {
	for _, src := range aggCorpus(t) {
		aggRoundTrip(t, src)
	}
}
