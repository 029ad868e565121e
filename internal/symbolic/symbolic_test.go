package symbolic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, e Expr, env Env) float64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%v) error: %v", e, err)
	}
	return v
}

func TestConstEval(t *testing.T) {
	if v := evalOK(t, C(3.5), nil); v != 3.5 {
		t.Fatalf("got %v, want 3.5", v)
	}
}

func TestSymbolEval(t *testing.T) {
	e := S("h")
	if v := evalOK(t, e, Env{"h": 8}); v != 8 {
		t.Fatalf("got %v, want 8", v)
	}
	if _, err := e.Eval(Env{}); err == nil {
		t.Fatal("expected unbound symbol error")
	}
}

// TestAddRepeatedTermsMatchesFold pins that Add's per-call reuse of
// repeated terms leaves coefficient accumulation unchanged: a long sum
// with repeats whose coefficient sums are inexact in floating point must
// equal the term-by-term left fold, bit for bit.
func TestAddRepeatedTermsMatchesFold(t *testing.T) {
	x, y := S("x"), S("y")
	terms := []Expr{
		Mul(C(0.1), x), Mul(C(1.0/3), x, y), Mul(C(0.7), x), Pow(y, C(2)),
		Mul(C(0.2), Pow(y, C(2))), Max(x, y), C(0.3), Mul(C(-0.1), x),
	}
	rng := rand.New(rand.NewSource(1))
	args := make([]Expr, 0, 4000)
	for i := 0; i < cap(args); i++ {
		args = append(args, terms[rng.Intn(len(terms))])
	}
	fold := Expr(Zero)
	for _, a := range args {
		fold = Add(fold, a)
	}
	if got := Add(args...); got.String() != fold.String() {
		t.Fatalf("Add = %s, left fold = %s", got, fold)
	}
}

func TestAddCollectsLikeTerms(t *testing.T) {
	x := S("x")
	e := Add(x, x, C(2), C(3))
	want := Add(Mul(C(2), x), C(5))
	if !Equal(e, want) {
		t.Fatalf("got %v, want %v", e, want)
	}
}

func TestAddCancellation(t *testing.T) {
	x := S("x")
	e := Add(x, Mul(C(-1), x))
	if !Equal(e, Zero) {
		t.Fatalf("x - x = %v, want 0", e)
	}
}

func TestAddSingleTermUnwraps(t *testing.T) {
	x := S("x")
	if !Equal(Add(x), x) {
		t.Fatalf("Add(x) != x")
	}
	if !Equal(Add(x, Zero), x) {
		t.Fatalf("Add(x, 0) != x")
	}
}

func TestMulMergesPowers(t *testing.T) {
	x := S("x")
	e := Mul(x, x, x)
	want := Pow(x, C(3))
	if !Equal(e, want) {
		t.Fatalf("got %v, want %v", e, want)
	}
}

func TestMulZeroAnnihilates(t *testing.T) {
	if !Equal(Mul(S("x"), Zero, S("y")), Zero) {
		t.Fatal("x*0*y != 0")
	}
}

func TestMulIdentity(t *testing.T) {
	x := S("x")
	if !Equal(Mul(x, One), x) {
		t.Fatal("x*1 != x")
	}
}

func TestPowRules(t *testing.T) {
	x := S("x")
	if !Equal(Pow(x, Zero), One) {
		t.Fatal("x^0 != 1")
	}
	if !Equal(Pow(x, One), x) {
		t.Fatal("x^1 != x")
	}
	if !Equal(Pow(Pow(x, C(2)), C(3)), Pow(x, C(6))) {
		t.Fatal("(x^2)^3 != x^6")
	}
	if !Equal(Pow(C(2), C(10)), C(1024)) {
		t.Fatal("2^10 != 1024")
	}
}

func TestPowDistributesOverMul(t *testing.T) {
	x, y := S("x"), S("y")
	e := Pow(Mul(x, y), C(2))
	want := Mul(Pow(x, C(2)), Pow(y, C(2)))
	if !Equal(e, want) {
		t.Fatalf("got %v, want %v", e, want)
	}
}

func TestSqrtTimesSqrt(t *testing.T) {
	p := S("p")
	e := Mul(Sqrt(p), Sqrt(p))
	if !Equal(e, p) {
		t.Fatalf("sqrt(p)*sqrt(p) = %v, want p", e)
	}
}

func TestDivCancel(t *testing.T) {
	x, y := S("x"), S("y")
	e := Div(Mul(x, y), x)
	if !Equal(e, y) {
		t.Fatalf("x*y/x = %v, want y", e)
	}
}

func TestSubs(t *testing.T) {
	h, v := S("h"), S("v")
	e := Add(Mul(C(8), Pow(h, C(2))), Mul(C(2), h, v))
	got := e.Subs(map[string]Expr{"v": C(10)})
	want := Add(Mul(C(8), Pow(h, C(2))), Mul(C(20), h))
	if !Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSubsWithExpr(t *testing.T) {
	x := S("x")
	e := Pow(x, C(2))
	got := e.Subs(map[string]Expr{"x": Add(S("a"), C(1))})
	// (a+1)^2 stays as a power of a sum; evaluate to check.
	v := evalOK(t, got, Env{"a": 3})
	if v != 16 {
		t.Fatalf("((a+1))^2 at a=3: got %v, want 16", v)
	}
}

func TestMaxFolding(t *testing.T) {
	if !Equal(Max(C(3), C(7)), C(7)) {
		t.Fatal("max(3,7) != 7")
	}
	x := S("x")
	if !Equal(Max(x, x), x) {
		t.Fatal("max(x,x) != x")
	}
	e := Max(x, Max(S("y"), C(2)), C(5))
	v := evalOK(t, e, Env{"x": 1, "y": 10})
	if v != 10 {
		t.Fatalf("nested max eval: got %v, want 10", v)
	}
}

func TestMinFolding(t *testing.T) {
	if !Equal(Min(C(3), C(7)), C(3)) {
		t.Fatal("min(3,7) != 3")
	}
	e := Min(S("x"), C(4))
	if v := evalOK(t, e, Env{"x": 9}); v != 4 {
		t.Fatalf("min(x,4) at x=9: got %v, want 4", v)
	}
}

func TestCeilFloorLog2(t *testing.T) {
	if !Equal(Ceil(C(2.3)), C(3)) {
		t.Fatal("ceil(2.3) != 3")
	}
	if !Equal(Floor(C(2.7)), C(2)) {
		t.Fatal("floor(2.7) != 2")
	}
	if !Equal(Log2(C(8)), C(3)) {
		t.Fatal("log2(8) != 3")
	}
	e := Ceil(Div(S("n"), C(4)))
	if v := evalOK(t, e, Env{"n": 9}); v != 3 {
		t.Fatalf("ceil(9/4): got %v, want 3", v)
	}
}

func TestSymbols(t *testing.T) {
	e := Add(Mul(S("b"), Sqrt(S("p"))), Max(S("a"), C(2)))
	got := Symbols(e)
	want := []string{"a", "b", "p"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDegree(t *testing.T) {
	h, v := S("h"), S("v")
	e := Add(Mul(C(8), Pow(h, C(2)), S("l")), Mul(C(2), h, v))
	if d := Degree(e, "h"); d != 2 {
		t.Fatalf("degree in h: got %v, want 2", d)
	}
	if d := Degree(e, "v"); d != 1 {
		t.Fatalf("degree in v: got %v, want 1", d)
	}
	if d := Degree(e, "z"); d != 0 {
		t.Fatalf("degree in z: got %v, want 0", d)
	}
}

func TestPolyCoeff(t *testing.T) {
	x, y := S("x"), S("y")
	e := Add(Mul(C(3), Pow(x, C(2)), y), Mul(C(5), Pow(x, C(2))), Mul(C(7), x))
	got := PolyCoeff(e, "x", 2)
	want := Add(Mul(C(3), y), C(5))
	if !Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !Equal(PolyCoeff(e, "x", 1), C(7)) {
		t.Fatalf("coeff deg1: got %v", PolyCoeff(e, "x", 1))
	}
	if !Equal(PolyCoeff(e, "x", 3), Zero) {
		t.Fatalf("coeff deg3: got %v", PolyCoeff(e, "x", 3))
	}
}

func TestStringCanonicalAndStable(t *testing.T) {
	a := Add(Mul(C(2), S("x")), S("y"), C(3))
	b := Add(C(3), S("y"), Mul(S("x"), C(2)))
	if a.String() != b.String() {
		t.Fatalf("canonical strings differ: %q vs %q", a, b)
	}
}

func TestNegativeRendering(t *testing.T) {
	e := Sub(S("x"), S("y"))
	if got := e.String(); got != "x - y" {
		t.Fatalf("got %q, want \"x - y\"", got)
	}
}

func TestMustEvalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound symbol")
		}
	}()
	MustEval(S("nope"), Env{})
}

func TestWordLMParameterFormula(t *testing.T) {
	// p = 8*h^2*l + 2*h*v (paper §4.2). Check symbolic construction and
	// evaluation at the paper's current-SOTA-like scale.
	h, l, v := S("h"), S("l"), S("v")
	p := Add(Mul(C(8), Pow(h, C(2)), l), Mul(C(2), h, v))
	got := evalOK(t, p, Env{"h": 2048, "l": 2, "v": 40000})
	want := 8*2048*2048*2 + 2*2048*40000.0
	if got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// ---------------------------------------------------------------------------
// Property-based tests

// randExpr builds a random expression over symbols a, b, c with bounded depth.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return C(float64(r.Intn(9) - 4))
		default:
			return S(string(rune('a' + r.Intn(3))))
		}
	}
	switch r.Intn(6) {
	case 0:
		return Add(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return Mul(randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return Pow(randExpr(r, depth-1), C(float64(r.Intn(3))))
	case 3:
		return Max(randExpr(r, depth-1), randExpr(r, depth-1))
	case 4:
		return Min(randExpr(r, depth-1), randExpr(r, depth-1))
	default:
		return Sub(randExpr(r, depth-1), randExpr(r, depth-1))
	}
}

func randEnv(r *rand.Rand) Env {
	return Env{
		"a": 1 + r.Float64()*4,
		"b": 1 + r.Float64()*4,
		"c": 1 + r.Float64()*4,
	}
}

func almostEqual(x, y float64) bool {
	if x == y {
		return true
	}
	diff := math.Abs(x - y)
	scale := math.Max(math.Abs(x), math.Abs(y))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestPropAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := randExpr(r, 3), randExpr(r, 3)
		return Equal(Add(x, y), Add(y, x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMulCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := randExpr(r, 3), randExpr(r, 3)
		return Equal(Mul(x, y), Mul(y, x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSimplifyPreservesValue(t *testing.T) {
	// Building (x + y) and Add(x, y) must agree numerically with direct
	// evaluation of the parts.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := randExpr(r, 3), randExpr(r, 3)
		env := randEnv(r)
		xv, err1 := x.Eval(env)
		yv, err2 := y.Eval(env)
		if err1 != nil || err2 != nil {
			return true
		}
		sv, err := Add(x, y).Eval(env)
		if err != nil {
			return false
		}
		pv, err := Mul(x, y).Eval(env)
		if err != nil {
			return false
		}
		return almostEqual(sv, xv+yv) && almostEqual(pv, xv*yv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubsIdentity(t *testing.T) {
	// Substituting a symbol with itself leaves the value unchanged.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 4)
		env := randEnv(r)
		before, err := e.Eval(env)
		if err != nil {
			return true
		}
		after, err := e.Subs(map[string]Expr{"a": S("a")}).Eval(env)
		if err != nil {
			return false
		}
		return almostEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubsConstMatchesEval(t *testing.T) {
	// e.Subs(a->const).Eval(env) == e.Eval(env with a=const).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 4)
		env := randEnv(r)
		av := env["a"]
		sub := e.Subs(map[string]Expr{"a": C(av)})
		v1, err1 := e.Eval(env)
		v2, err2 := sub.Eval(env)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil || err1 == nil
		}
		return almostEqual(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCanonicalIdempotent(t *testing.T) {
	// Rebuilding an expression through Subs with an empty binding must give
	// an identical canonical form (simplification is a fixed point).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 4)
		return Equal(e, e.Subs(map[string]Expr{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDegreeAdditiveUnderMul(t *testing.T) {
	// deg(x^m * x^n) == m+n for polynomial powers.
	f := func(m, n uint8) bool {
		mi, ni := float64(m%5), float64(n%5)
		e := Mul(Pow(S("x"), C(mi)), Pow(S("x"), C(ni)))
		return Degree(e, "x") == mi+ni
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
