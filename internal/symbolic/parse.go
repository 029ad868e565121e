package symbolic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse converts the canonical textual form back into an expression. It
// accepts everything String produces (and ordinary arithmetic beyond it):
// numbers (including scientific notation), symbols, + - * / ^, parentheses,
// and the function calls max(...), min(...), ceil(x), floor(x), log2(x),
// sqrt(x). Serialized graphs (package graphio) round-trip through this.
// Input nested deeper than maxParseDepth is rejected with an error.
func Parse(src string) (Expr, error) {
	p := &parser{src: src}
	p.next()
	e, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("symbolic: unexpected %q at offset %d", p.tok.text, p.tok.pos)
	}
	return e, nil
}

// MustParse is Parse that panics on malformed input; for literals in tests
// and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokNum
	tokIdent
	tokOp     // + - * / ^
	tokLParen // (
	tokRParen // )
	tokComma  // ,
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// maxParseDepth bounds how deeply Parse nests: parentheses, function
// arguments, prefix signs and the right operand of each ^ each take one
// level. Parse recurses once per level, and a Go stack overflow is fatal
// rather than a recoverable panic, so unbounded nesting in an uploaded
// graph could end the process. The checkpoints of the five built-in
// domains nest one level at most.
const maxParseDepth = 1000

type parser struct {
	src   string
	off   int
	tok   token
	err   error
	depth int // parseExpr frames active
}

func (p *parser) next() {
	for p.off < len(p.src) && unicode.IsSpace(rune(p.src[p.off])) {
		p.off++
	}
	start := p.off
	if p.off >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.off]
	switch {
	case c == '(':
		p.off++
		p.tok = token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		p.off++
		p.tok = token{kind: tokRParen, text: ")", pos: start}
	case c == ',':
		p.off++
		p.tok = token{kind: tokComma, text: ",", pos: start}
	case strings.ContainsRune("+-*/^", rune(c)):
		p.off++
		p.tok = token{kind: tokOp, text: string(c), pos: start}
	case c >= '0' && c <= '9' || c == '.':
		p.off++
		for p.off < len(p.src) {
			c := p.src[p.off]
			if c >= '0' && c <= '9' || c == '.' {
				p.off++
				continue
			}
			// Scientific notation: 1e+09, 2.5E-3.
			if (c == 'e' || c == 'E') && p.off+1 < len(p.src) {
				nc := p.src[p.off+1]
				if nc >= '0' && nc <= '9' {
					p.off += 2
					continue
				}
				if (nc == '+' || nc == '-') && p.off+2 < len(p.src) &&
					p.src[p.off+2] >= '0' && p.src[p.off+2] <= '9' {
					p.off += 3
					continue
				}
			}
			break
		}
		p.tok = token{kind: tokNum, text: p.src[start:p.off], pos: start}
	case unicode.IsLetter(rune(c)) || c == '_':
		p.off++
		for p.off < len(p.src) {
			r := rune(p.src[p.off])
			if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
				p.off++
				continue
			}
			break
		}
		p.tok = token{kind: tokIdent, text: p.src[start:p.off], pos: start}
	default:
		p.tok = token{kind: tokEOF, pos: start}
		p.err = fmt.Errorf("symbolic: invalid character %q at offset %d", c, start)
	}
}

// binding powers: + - < * / < unary minus < ^ (right associative).
func infixPower(op string) (int, int, bool) {
	switch op {
	case "+", "-":
		return 1, 2, true
	case "*", "/":
		return 3, 4, true
	case "^":
		return 8, 7, true // right associative
	}
	return 0, 0, false
}

func (p *parser) parseExpr(minBP int) (Expr, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.depth > maxParseDepth {
		return nil, fmt.Errorf("symbolic: expression nested deeper than %d at offset %d", maxParseDepth, p.tok.pos)
	}
	p.depth++
	defer func() { p.depth-- }()
	lhs, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	for {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.kind != tokOp {
			return lhs, nil
		}
		lbp, rbp, ok := infixPower(p.tok.text)
		if !ok || lbp < minBP {
			return lhs, nil
		}
		op := p.tok.text
		p.next()
		rhs, err := p.parseExpr(rbp)
		if err != nil {
			return nil, err
		}
		switch op {
		case "+":
			lhs = Add(lhs, rhs)
		case "-":
			lhs = Sub(lhs, rhs)
		case "*":
			lhs = Mul(lhs, rhs)
		case "/":
			lhs = Div(lhs, rhs)
		case "^":
			lhs = Pow(lhs, rhs)
		}
	}
}

func (p *parser) parsePrefix() (Expr, error) {
	if p.err != nil {
		return nil, p.err
	}
	switch p.tok.kind {
	case tokNum:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("symbolic: bad number %q at offset %d", p.tok.text, p.tok.pos)
		}
		p.next()
		return Const(v), nil

	case tokIdent:
		name := p.tok.text
		p.next()
		if p.tok.kind != tokLParen {
			return Symbol(name), nil
		}
		// Function call.
		p.next()
		var args []Expr
		if p.tok.kind != tokRParen {
			for {
				a, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.tok.kind != tokComma {
					break
				}
				p.next()
			}
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("symbolic: missing ) at offset %d", p.tok.pos)
		}
		p.next()
		return applyFunc(name, args)

	case tokOp:
		switch p.tok.text {
		case "-":
			p.next()
			e, err := p.parseExpr(5) // binds tighter than * but looser than ^
			if err != nil {
				return nil, err
			}
			return Mul(Const(-1), e), nil
		case "+":
			p.next()
			return p.parseExpr(5)
		}
		return nil, fmt.Errorf("symbolic: unexpected operator %q at offset %d", p.tok.text, p.tok.pos)

	case tokLParen:
		p.next()
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("symbolic: missing ) at offset %d", p.tok.pos)
		}
		p.next()
		return e, nil
	}
	return nil, fmt.Errorf("symbolic: unexpected %q at offset %d", p.tok.text, p.tok.pos)
}

func applyFunc(name string, args []Expr) (Expr, error) {
	switch name {
	case "max":
		if len(args) < 1 {
			return nil, fmt.Errorf("symbolic: max needs arguments")
		}
		return Max(args...), nil
	case "min":
		if len(args) < 1 {
			return nil, fmt.Errorf("symbolic: min needs arguments")
		}
		return Min(args...), nil
	case "ceil", "floor", "log2", "sqrt":
		if len(args) != 1 {
			return nil, fmt.Errorf("symbolic: %s needs exactly one argument", name)
		}
		switch name {
		case "ceil":
			return Ceil(args[0]), nil
		case "floor":
			return Floor(args[0]), nil
		case "log2":
			return Log2(args[0]), nil
		default:
			return Sqrt(args[0]), nil
		}
	}
	return nil, fmt.Errorf("symbolic: unknown function %q", name)
}
