package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses one program in the concrete syntax:
//
//	func name(p1, p2) {
//	  x := tempOfMonth(r, 3) + 1;
//	  if (x > 10) { notify 1 true; } else { notify 1 (x == 0); }
//	  while (i <= 12) { i := i + 1; }
//	}
//
// Comparisons >, >=, and != are sugar for the core operators {<, <=, =}
// (with operands swapped or the result negated). `notify id e` with a
// non-constant boolean e is sugar for `if (e) { notify id true } else
// { notify id false }`, matching how the paper compiles returns of boolean
// expressions. `// line comments` are allowed.
func Parse(src string) (*Program, error) {
	p := &parser{toks: lex(src)}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return prog, nil
}

// ParseAll parses a sequence of programs from one source string.
func ParseAll(src string) ([]*Program, error) {
	p := &parser{toks: lex(src)}
	var out []*Program
	for !p.atEOF() {
		prog, err := p.parseProgram()
		if err != nil {
			return nil, err
		}
		out = append(out, prog)
	}
	return out, nil
}

// MustParse parses a program and panics on error; for tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MustParseStmt parses a bare statement sequence (without a func wrapper)
// and panics on error.
func MustParseStmt(src string) Stmt {
	p := &parser{toks: lex(src)}
	s, err := p.parseStmts("")
	if err == nil && !p.atEOF() {
		err = p.errorf("unexpected trailing input %q", p.peek().text)
	}
	if err != nil {
		panic(err)
	}
	return s
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // one of ( ) { } , ; := == != <= >= < > + - * ! && || =
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case ":=", "==", "!=", "<=", ">=", "&&", "||":
				toks = append(toks, token{tokPunct, two, i})
				i += 2
				continue
			}
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks
}

type parser struct {
	toks []token
	pos  int
	// ctx is the stack of start offsets of the multi-token constructs
	// (func, agg, if, while, fold, emit) currently being parsed. When a
	// parse error fires at EOF — truncated input — the EOF offset points at
	// nothing useful, so errorf reports the innermost unfinished
	// construct's start instead.
	ctx []int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// next consumes and returns the current token. It never advances past the
// trailing EOF token, so peek stays in bounds no matter how many times a
// parse loop calls next on truncated input.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(n int) { p.pos = n }

func (p *parser) errorf(format string, args ...any) error {
	if p.peek().kind == tokEOF && len(p.ctx) > 0 {
		return fmt.Errorf("lang: parse error at offset %d (construct truncated by end of input): %s",
			p.ctx[len(p.ctx)-1], fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("lang: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// pushCtx records the current token's offset as a construct start and
// returns the matching pop. Call as `defer p.pushCtx()()`.
func (p *parser) pushCtx() func() {
	p.ctx = append(p.ctx, p.peek().pos)
	return func() { p.ctx = p.ctx[:len(p.ctx)-1] }
}

func (p *parser) expect(text string) error {
	t := p.peek()
	if t.text != text || (t.kind != tokPunct && t.kind != tokIdent) {
		return p.errorf("expected %q, found %q", text, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptPunct(text string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseProgram() (*Program, error) {
	defer p.pushCtx()()
	if err := p.expect("func"); err != nil {
		return nil, err
	}
	name := p.peek()
	if name.kind != tokIdent {
		return nil, p.errorf("expected program name, found %q", name.text)
	}
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.acceptPunct(")") {
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errorf("expected parameter name, found %q", t.text)
		}
		params = append(params, t.text)
		if !p.acceptPunct(",") && p.peek().text != ")" {
			return nil, p.errorf("expected ',' or ')' in parameter list, found %q", p.peek().text)
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Program{Name: name.text, Params: params, Body: body}, nil
}

func (p *parser) parseBlock() (Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	s, err := p.parseStmts("}")
	if err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return s, nil
}

// parseStmts parses statements until EOF or the given closing token.
func (p *parser) parseStmts(until string) (Stmt, error) {
	var stmts []Stmt
	for !p.atEOF() && !(until != "" && p.peek().text == until) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return SeqOf(stmts...), nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent && t.text == "skip":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return Skip{}, nil
	case t.kind == tokIdent && t.text == "if":
		defer p.pushCtx()()
		p.next()
		cond, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els Stmt = Skip{}
		if p.peek().kind == tokIdent && p.peek().text == "else" {
			p.next()
			if p.peek().text == "if" { // else-if chains
				els, err = p.parseStmt()
			} else {
				els, err = p.parseBlock()
			}
			if err != nil {
				return nil, err
			}
		}
		return Cond{Test: cond, Then: then, Else: els}, nil
	case t.kind == tokIdent && t.text == "while":
		defer p.pushCtx()()
		p.next()
		cond, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return While{Test: cond, Body: body}, nil
	case t.kind == tokIdent && t.text == "notify":
		p.next()
		idTok := p.next()
		if idTok.kind != tokNumber {
			return nil, p.errorf("expected notification id, found %q", idTok.text)
		}
		id, err := strconv.Atoi(idTok.text)
		if err != nil {
			return nil, p.errorf("bad notification id %q", idTok.text)
		}
		e, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if bc, ok := e.(BoolConst); ok {
			return Notify{ID: id, Value: bc.Value}, nil
		}
		// Desugar notify id e into a conditional over boolean constants.
		return Cond{Test: e, Then: Notify{ID: id, Value: true}, Else: Notify{ID: id, Value: false}}, nil
	case t.kind == tokIdent:
		// assignment
		p.next()
		if err := p.expect(":="); err != nil {
			return nil, err
		}
		e, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return Assign{Var: t.text, E: e}, nil
	}
	return nil, p.errorf("expected statement, found %q", t.text)
}

// parseBool parses a boolean expression: disjunctions of conjunctions of
// (possibly negated) comparisons or parenthesised boolean expressions.
func (p *parser) parseBool() (BoolExpr, error) {
	l, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokPunct && p.peek().text == "||" {
		p.next()
		r, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		l = BinBool{Op: Or, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBoolAnd() (BoolExpr, error) {
	l, err := p.parseBoolUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokPunct && p.peek().text == "&&" {
		p.next()
		r, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		l = BinBool{Op: And, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBoolUnary() (BoolExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "!":
		p.next()
		e, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return BoolConst{Value: true}, nil
	case t.kind == tokIdent && t.text == "false":
		p.next()
		return BoolConst{Value: false}, nil
	case t.kind == tokPunct && t.text == "(":
		// Could be a parenthesised boolean or the left operand of a
		// comparison; try boolean first, then fall back to a comparison.
		mark := p.save()
		p.next()
		if b, err := p.parseBool(); err == nil && p.acceptPunct(")") {
			// Reject when what follows suggests the parenthesised expression
			// was an integer operand, e.g. "(x + 1) < y".
			if !p.peekCmpOrArith() {
				return b, nil
			}
		}
		p.restore(mark)
		return p.parseCmp()
	default:
		return p.parseCmp()
	}
}

func (p *parser) peekCmpOrArith() bool {
	if t := p.peek(); t.kind == tokPunct {
		switch t.text {
		case "<", "<=", ">", ">=", "==", "!=", "+", "-", "*":
			return true
		}
	}
	return false
}

func (p *parser) parseCmp() (BoolExpr, error) {
	l, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokPunct {
		return nil, p.errorf("expected comparison operator, found %q", t.text)
	}
	op := t.text
	switch op {
	case "<", "<=", ">", ">=", "==", "!=":
		p.next()
	default:
		return nil, p.errorf("expected comparison operator, found %q", t.text)
	}
	r, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	switch op {
	case "<":
		return Cmp{Op: Lt, L: l, R: r}, nil
	case "<=":
		return Cmp{Op: Le, L: l, R: r}, nil
	case ">":
		return Cmp{Op: Lt, L: r, R: l}, nil
	case ">=":
		return Cmp{Op: Le, L: r, R: l}, nil
	case "==":
		return Cmp{Op: Eq, L: l, R: r}, nil
	default: // !=
		return Not{E: Cmp{Op: Eq, L: l, R: r}}, nil
	}
}

func (p *parser) parseInt() (IntExpr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			op := Add
			if t.text == "-" {
				op = Sub
			}
			l = BinInt{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseTerm() (IntExpr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokPunct && p.peek().text == "*" {
		p.next()
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = BinInt{Op: Mul, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFactor() (IntExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.text)
		}
		return IntConst{Value: v}, nil
	case t.kind == tokPunct && t.text == "-":
		p.next()
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(IntConst); ok {
			return IntConst{Value: -c.Value}, nil
		}
		return BinInt{Op: Sub, L: IntConst{Value: 0}, R: e}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		e, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.next()
		if p.acceptPunct("(") {
			var args []IntExpr
			for !p.acceptPunct(")") {
				a, err := p.parseInt()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.acceptPunct(",") && p.peek().text != ")" {
					return nil, p.errorf("expected ',' or ')' in call arguments, found %q", p.peek().text)
				}
			}
			return Call{Func: t.text, Args: args}, nil
		}
		return Var{Name: t.text}, nil
	}
	return nil, p.errorf("expected integer expression, found %q", t.text)
}

// ParseAgg parses one windowed aggregation program in the concrete syntax
// documented on AggProgram, and validates it with CheckAgg:
//
//	agg hot(r) window 4 by cityOf {
//	  acc hi = -9999;
//	  fold { t := tempObs(r); if (hi < t) { hi := t; } }
//	  emit { notify 0 (hi > 30); }
//	}
func ParseAgg(src string) (*AggProgram, error) {
	p := &parser{toks: lex(src)}
	a, err := p.parseAgg()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return a, nil
}

// ParseAggs parses a sequence of aggregation programs from one source.
func ParseAggs(src string) ([]*AggProgram, error) {
	p := &parser{toks: lex(src)}
	var out []*AggProgram
	for !p.atEOF() {
		a, err := p.parseAgg()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// MustParseAgg parses an aggregation program and panics on error.
func MustParseAgg(src string) *AggProgram {
	a, err := ParseAgg(src)
	if err != nil {
		panic(err)
	}
	return a
}

func (p *parser) parseAgg() (*AggProgram, error) {
	defer p.pushCtx()()
	if err := p.expect("agg"); err != nil {
		return nil, err
	}
	name := p.peek()
	if name.kind != tokIdent {
		return nil, p.errorf("expected aggregation name, found %q", name.text)
	}
	p.next()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	param := p.peek()
	if param.kind != tokIdent {
		return nil, p.errorf("expected record parameter, found %q", param.text)
	}
	p.next()
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("window"); err != nil {
		return nil, err
	}
	szTok := p.peek()
	if szTok.kind != tokNumber {
		return nil, p.errorf("expected window size, found %q", szTok.text)
	}
	p.next()
	size, err := strconv.Atoi(szTok.text)
	if err != nil {
		return nil, p.errorf("bad window size %q", szTok.text)
	}
	spec := WindowSpec{Size: size}
	if t := p.peek(); t.kind == tokIdent && t.text == "by" {
		p.next()
		kf := p.peek()
		if kf.kind != tokIdent {
			return nil, p.errorf("expected key function name, found %q", kf.text)
		}
		p.next()
		spec.KeyFunc = kf.text
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var accs []AccDecl
	for p.peek().kind == tokIdent && p.peek().text == "acc" {
		d, err := p.parseAccDecl()
		if err != nil {
			return nil, err
		}
		accs = append(accs, d)
	}
	fold, err := p.parseNamedBlock("fold")
	if err != nil {
		return nil, err
	}
	emit, err := p.parseNamedBlock("emit")
	if err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	a := &AggProgram{Name: name.text, Param: param.text, Window: spec, Accs: accs, Fold: fold, Emit: emit}
	if err := CheckAgg(a); err != nil {
		return nil, err
	}
	return a, nil
}

func (p *parser) parseAccDecl() (AccDecl, error) {
	defer p.pushCtx()()
	if err := p.expect("acc"); err != nil {
		return AccDecl{}, err
	}
	nameTok := p.peek()
	if nameTok.kind != tokIdent {
		return AccDecl{}, p.errorf("expected accumulator name, found %q", nameTok.text)
	}
	p.next()
	if err := p.expect("="); err != nil {
		return AccDecl{}, err
	}
	neg := p.acceptPunct("-")
	vTok := p.peek()
	if vTok.kind != tokNumber {
		return AccDecl{}, p.errorf("expected accumulator initial value, found %q", vTok.text)
	}
	p.next()
	v, err := strconv.ParseInt(vTok.text, 10, 64)
	if err != nil {
		return AccDecl{}, p.errorf("bad accumulator initial value %q", vTok.text)
	}
	if neg {
		v = -v
	}
	if err := p.expect(";"); err != nil {
		return AccDecl{}, err
	}
	return AccDecl{Name: nameTok.text, Init: v}, nil
}

// parseNamedBlock parses `kw { stmts }` (the fold and emit sections).
func (p *parser) parseNamedBlock(kw string) (Stmt, error) {
	defer p.pushCtx()()
	if err := p.expect(kw); err != nil {
		return nil, err
	}
	return p.parseBlock()
}

// Format renders a program with indentation; the output re-parses to an
// equal AST.
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(%s) {\n", p.Name, strings.Join(p.Params, ", "))
	formatStmt(&b, p.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

// FormatStmt renders a statement with indentation.
func FormatStmt(s Stmt) string {
	var b strings.Builder
	formatStmt(&b, s, 0)
	return b.String()
}

func formatStmt(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch t := s.(type) {
	case Skip:
		b.WriteString(ind + "skip;\n")
	case Assign:
		fmt.Fprintf(b, "%s%s := %s;\n", ind, t.Var, t.E)
	case Seq:
		formatStmt(b, t.L, depth)
		formatStmt(b, t.R, depth)
	case Notify:
		v := "false"
		if t.Value {
			v = "true"
		}
		fmt.Fprintf(b, "%snotify %d %s;\n", ind, t.ID, v)
	case Cond:
		fmt.Fprintf(b, "%sif %s {\n", ind, t.Test)
		formatStmt(b, t.Then, depth+1)
		if _, isSkip := t.Else.(Skip); isSkip {
			b.WriteString(ind + "}\n")
		} else {
			b.WriteString(ind + "} else {\n")
			formatStmt(b, t.Else, depth+1)
			b.WriteString(ind + "}\n")
		}
	case While:
		fmt.Fprintf(b, "%swhile %s {\n", ind, t.Test)
		formatStmt(b, t.Body, depth+1)
		b.WriteString(ind + "}\n")
	}
}
