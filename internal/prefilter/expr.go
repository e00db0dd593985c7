package prefilter

import (
	"consolidation/internal/lang"
	"consolidation/internal/logic"
)

// toBoolExpr renders a fragment formula back to lang source syntax. It
// fails (ok == false) on atoms whose terms fall outside the language —
// which projection should already have weakened away — making it a final
// structural gate before compilation.
func toBoolExpr(f logic.Formula) (lang.BoolExpr, bool) {
	switch x := f.(type) {
	case logic.FTrue:
		return lang.BoolConst{Value: true}, true
	case logic.FFalse:
		return lang.BoolConst{Value: false}, true
	case logic.FAtom:
		l, ok := toIntExpr(x.L)
		if !ok {
			return nil, false
		}
		r, ok := toIntExpr(x.R)
		if !ok {
			return nil, false
		}
		var op lang.CmpOp
		switch x.Pred {
		case logic.Lt:
			op = lang.Lt
		case logic.Eq:
			op = lang.Eq
		case logic.Le:
			op = lang.Le
		default:
			return nil, false
		}
		return lang.Cmp{Op: op, L: l, R: r}, true
	case logic.FNot:
		e, ok := toBoolExpr(x.F)
		if !ok {
			return nil, false
		}
		return lang.Not{E: e}, true
	case logic.FAnd:
		return foldBool(lang.And, x.Fs)
	case logic.FOr:
		return foldBool(lang.Or, x.Fs)
	}
	return nil, false
}

func foldBool(op lang.BoolOp, fs []logic.Formula) (lang.BoolExpr, bool) {
	if len(fs) == 0 {
		// Smart constructors never produce empty connectives.
		return nil, false
	}
	acc, ok := toBoolExpr(fs[0])
	if !ok {
		return nil, false
	}
	for _, f := range fs[1:] {
		e, ok := toBoolExpr(f)
		if !ok {
			return nil, false
		}
		acc = lang.BinBool{Op: op, L: acc, R: e}
	}
	return acc, true
}

func toIntExpr(t logic.Term) (lang.IntExpr, bool) {
	switch x := t.(type) {
	case logic.TConst:
		return lang.IntConst{Value: x.Value}, true
	case logic.TVar:
		return lang.Var{Name: x.Name}, true
	case logic.TApp:
		args := make([]lang.IntExpr, len(x.Args))
		for i, a := range x.Args {
			e, ok := toIntExpr(a)
			if !ok {
				return nil, false
			}
			args[i] = e
		}
		return lang.Call{Func: x.Func, Args: args}, true
	case logic.TBin:
		l, ok := toIntExpr(x.L)
		if !ok {
			return nil, false
		}
		r, ok := toIntExpr(x.R)
		if !ok {
			return nil, false
		}
		var op lang.IntOp
		switch x.Op {
		case logic.Add:
			op = lang.Add
		case logic.Sub:
			op = lang.Sub
		case logic.Mul:
			op = lang.Mul
		default:
			return nil, false
		}
		return lang.BinInt{Op: op, L: l, R: r}, true
	}
	return nil, false
}
