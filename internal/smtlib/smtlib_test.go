package smtlib

import (
	"strings"
	"testing"
)

func run(t *testing.T, src string) string {
	t.Helper()
	out, err := New().Run(src)
	if err != nil {
		t.Fatalf("Run: %v\noutput so far: %s", err, out)
	}
	return strings.TrimSpace(out)
}

func TestBasicSatUnsat(t *testing.T) {
	out := run(t, `
(set-logic QF_UFLIA)
(declare-const x Int)
(assert (> x 0))
(assert (< x 10))
(check-sat)
(assert (> x 20))
(check-sat)
`)
	if out != "sat\nunsat" {
		t.Fatalf("output = %q", out)
	}
}

func TestUninterpretedFunctions(t *testing.T) {
	out := run(t, `
(declare-const x Int)
(declare-const y Int)
(declare-fun f (Int) Int)
(assert (= x y))
(assert (distinct (f x) (f y)))
(check-sat)
`)
	if out != "unsat" {
		t.Fatalf("output = %q", out)
	}
}

func TestResetAndEcho(t *testing.T) {
	out := run(t, `
(declare-const x Int)
(assert (and (> x 0) (< x 0)))
(check-sat)
(reset)
(echo "fresh")
(declare-const x Int)
(assert (> x 0))
(check-sat)
`)
	if out != "unsat\nfresh\nsat" {
		t.Fatalf("output = %q", out)
	}
}

func TestOperators(t *testing.T) {
	out := run(t, `
(declare-const a Int)
(declare-const b Int)
(assert (=> (> a 5) (> a 3)))
(assert (or (<= a b) (<= b a)))
(assert (ite (> a b) (> (- a b) 0) (>= (- b a) 0)))
(assert (= (+ a b 1) (+ b a 1)))
(assert (= (* 2 a) (+ a a)))
(check-sat)
(assert (not (= (* 2 a) (+ a a))))
(check-sat)
`)
	if out != "sat\nunsat" {
		t.Fatalf("output = %q", out)
	}
}

func TestUnaryMinus(t *testing.T) {
	out := run(t, `
(declare-const x Int)
(assert (= x (- 5)))
(assert (< x 0))
(check-sat)
`)
	if out != "sat" {
		t.Fatalf("output = %q", out)
	}
}

// TestInt64Overflow: x = 2⁶³ is a model over the integers, so a constant
// sum past int64 must not come back unsat.
func TestInt64Overflow(t *testing.T) {
	out := run(t, `(declare-const x Int)(assert (= x (+ 9223372036854775807 1)))(check-sat)`)
	if out == "unsat" {
		t.Fatalf("output = %q, want sat or unknown", out)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		`(assert (> x 0))`, // undeclared
		`(declare-fun f (Int) Int) (assert (= (f 1 2) 0))`, // arity
		`(check-sat`,         // missing paren
		`(frobnicate)`,       // unknown command
		`(assert (+ 1 2))`,   // term where formula expected
		`(assert (wat 1 2))`, // unknown head
		`)`,                  // stray paren
	}
	for _, src := range bad {
		if _, err := New().Run(src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	out := run(t, `
; a comment
(declare-const x Int) ; trailing comment
(assert (= x 3))
(check-sat)
`)
	if out != "sat" {
		t.Fatalf("output = %q", out)
	}
}
