"""Differential and oracle tests for `QExt` arithmetic on integers.

`QExt` stores the reduced triple (p, q, d) of (p + q*sqrt(2)) / d and
computes `+ - * /`, `sign` and `sqrt` on it.  Each operation is checked:

- against a test-side copy of the Fraction formulas it replaced, for the
  same reduced parts and the same types, and for a reduced triple;
- against sympy with an exact sqrt(2), an oracle that shares no code with
  qnet;

its text against a copy of the Fraction-pair `format_qext`, its hash across
routes to one value, and `iter_sqrt`, which now reads numerators and
denominators directly, against a copy of its Fraction body.
"""

import decimal
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qnet import QExt, iter_sqrt
from qnet.scalar import int_parts, sign

# --- the Fraction formulas QExt used before its integer arithmetic ------------------


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def fraction_div(x: QExt, o: QExt) -> tuple[Fraction, Fraction]:
    if not o.a and o.b:
        if o.b == 1:
            a = x.a
            return x.b, Fraction(a.numerator, 2 * a.denominator)
        return x.b / o.b, x.a / (2 * o.b)
    norm = o.a * o.a - 2 * o.b * o.b
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
    na, nb = x.a * o.a - 2 * x.b * o.b, x.a * -o.b + x.b * o.a
    return na / norm, nb / norm


def fraction_sign(x: QExt) -> int:
    sa = (x.a > 0) - (x.a < 0)
    sb = (x.b > 0) - (x.b < 0)
    if sa == 0:
        return sb
    if sb == 0 or sa == sb:
        return sa
    if x.a * x.a > 2 * x.b * x.b:
        return sa
    return sb


def fraction_sqrt(x: QExt) -> tuple[Fraction, Fraction] | None:
    if fraction_sign(x) < 0:
        raise ValueError("square root of a negative value")
    if x.b == 0:
        r = _rational_sqrt(x.a)
        if r is not None:
            return r, Fraction(0)
        r = _rational_sqrt(x.a / 2)
        if r is not None:
            return Fraction(0), r
        return None
    s = _rational_sqrt(x.a * x.a - 2 * x.b * x.b)
    if s is None:
        return None
    for c_sq in ((x.a + s) / 2, (x.a - s) / 2):
        c = _rational_sqrt(c_sq)
        if c is not None and c != 0:
            a, b = c, x.b / (2 * c)
            return (-a, -b) if fraction_sign(QExt(a, b)) < 0 else (a, b)
    return None


FRACTION_OPS = {
    "+": lambda x, y: (x.a + y.a, x.b + y.b),
    "-": lambda x, y: (x.a - y.a, x.b - y.b),
    "*": lambda x, y: (x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a),
    "/": fraction_div,
}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def fraction_format(x: QExt) -> str:
    """`format_qext` as it was written on the two Fractions."""
    if x.b == 0:
        return str(x.a)
    if x.a == 0:
        return f"{x.b}*s2"
    if x.b < 0:
        return f"{x.a}-{-x.b}*s2"
    return f"{x.a}+{x.b}*s2"


def fraction_iter_sqrt(x, e) -> Fraction:
    """`iter_sqrt`'s closed form as it was written on Fractions."""
    x = Fraction(x)
    e = Fraction(e)
    if x < 0:
        raise ValueError("iter_sqrt of a negative value")
    if e <= 0:
        raise ValueError("tolerance must be positive")
    w = max(Fraction(1), x)
    wn, wd = w.numerator, w.denominator
    big, small = wn * e.denominator, e.numerator * wd
    m = max(0, big.bit_length() - small.bit_length())
    if small << m < big:
        m += 1
    k = math.isqrt((x.numerator * wd * wd << 2 * m) // (x.denominator * wn * wn))
    k = min(k, (1 << m) - 1)
    return Fraction((2 * k + 1) * wn, wd << (m + 1))


# --- strategies --------------------------------------------------------------------

numerators = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**40), 10**40),
)
denominators = st.one_of(
    st.just(1),  # integers
    st.integers(1, 12),
    st.integers(0, 200).map(lambda k: 2**k),  # the H gate's powers of two
    st.integers(1, 10**40),  # huge, and with it tiny values
)
rationals = st.builds(Fraction, numerators, denominators)
qexts = st.builds(QExt, rationals, rationals)
# an operand of mixed arithmetic: a QExt, an int or a Fraction
operands = st.one_of(qexts, qexts, numerators, rationals)


def as_qext(x) -> QExt:
    return x if isinstance(x, QExt) else QExt(x)


def parts(x: QExt) -> tuple:
    """The Fraction parts and their types, after checking that x is stored
    as a reduced triple."""
    assert type(x.p) is type(x.q) is type(x.d) is int
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    return x.a, x.b, type(x.a), type(x.b)


def squares():
    """Elements with an in-field root, and their near misses."""
    root = qexts.map(lambda r: r * r)
    twice = rationals.map(lambda r: QExt(2 * r * r))  # root r*sqrt(2)
    return st.one_of(root, twice, root.map(lambda x: x + 1), qexts.map(lambda x: x * x * 3))


# --- against the Fraction formulas ---------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(OPS)), operands, operands)
def test_operators_match_the_fraction_formulas(op, x, y):
    assume(isinstance(x, QExt) or isinstance(y, QExt))
    if op == "/" and not y:
        with pytest.raises(ZeroDivisionError):
            OPS[op](x, y)
        return
    want = FRACTION_OPS[op](as_qext(x), as_qext(y))
    got = OPS[op](x, y)
    assert type(got) is QExt
    assert parts(got) == (*want, Fraction, Fraction)


@settings(max_examples=300, deadline=None)
@given(qexts)
def test_negation_and_sign_match_the_fraction_formulas(x):
    assert parts(-x) == (-x.a, -x.b, Fraction, Fraction)
    assert x.sign() == fraction_sign(x)
    p, q, d = int_parts(x)
    assert d > 0 and (Fraction(p, d), Fraction(q, d)) == (x.a, x.b)
    assert sign(p, q) == x.sign()
    assert (p, q, d) == (x.p, x.q, x.d)
    parts(x)


@settings(max_examples=400, deadline=None)
@given(qexts)
@example(QExt(0))
@example(QExt(3))
@example(QExt(Fraction(-7, 2)))
@example(QExt(0, 1))
@example(QExt(0, Fraction(-1, 2)))
@example(QExt(2, -1))
@example(QExt(Fraction(1, 6), Fraction(-3, 4)))
@example(QExt(Fraction(-1, 4), Fraction(5, 6)))
@example(QExt(Fraction(1, 2**200), 5))
def test_text_matches_the_fraction_pair_format(x):
    # examples: zero, integer and rational parts, b zero, negative, or alone,
    # and a large denominator
    assert str(x) == fraction_format(x)


@pytest.mark.parametrize(
    "x", [7, True, Fraction(-6, 4), "3/4", " -2 ", 0.375, decimal.Decimal("1.25"), 10**40 + 1]
)
def test_constructor_reads_what_fraction_reads(x):
    for got in (QExt(x), QExt(x, x), QExt(0, x)):
        parts(got)
    assert QExt(x, x) == QExt(Fraction(x), Fraction(x))


@pytest.mark.parametrize("x", [None, 1j, "s2", float("nan"), [1]])
def test_constructor_refuses_what_fraction_refuses(x):
    with pytest.raises(Exception) as want:
        Fraction(x)
    with pytest.raises(want.type):
        QExt(x)
    with pytest.raises(want.type):
        QExt(0, x)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, qexts)
def test_equal_values_hash_equal(a, b, y):
    x = QExt(a, b)
    assume(y)
    routes = [QExt(a) + QExt(0, b), QExt(0, b) - -QExt(a), x * y / y, (x + y) - y, -(-x)]
    assert routes == [x] * len(routes)
    assert {hash(r) for r in routes} == {hash(x)}
    # a rational value equals, and hashes like, its Fraction and int
    assert QExt(a) == a and hash(QExt(a)) == hash(a)
    assert hash(QExt(a.numerator)) == hash(a.numerator)
    norm = x * QExt(a, -b)  # a^2 - 2 b^2, reached through sqrt(2) parts
    assert norm == a * a - 2 * b * b and hash(norm) == hash(a * a - 2 * b * b)


@settings(max_examples=400, deadline=None)
@given(st.one_of(squares(), qexts))
def test_sqrt_matches_the_fraction_formula(x):
    if fraction_sign(x) < 0:
        with pytest.raises(ValueError):
            x.sqrt()
        return
    want = fraction_sqrt(x)
    got = x.sqrt()
    if want is None:
        assert got is None
    else:
        assert parts(got) == (*want, Fraction, Fraction)


def test_sqrt_finds_roots_of_every_shape():
    assert QExt(Fraction(9, 4)).sqrt() == QExt(Fraction(3, 2))
    assert QExt(Fraction(1, 2)).sqrt() == QExt(0, Fraction(1, 2))
    assert QExt(3, 2).sqrt() == QExt(1, 1)  # (1 + sqrt(2))^2
    assert QExt(3, -2).sqrt() == QExt(-1, 1)  # sqrt(2) - 1 >= 0
    assert QExt(Fraction(3, 4), Fraction(1, 2)).sqrt() == QExt(Fraction(1, 2), Fraction(1, 2))
    assert QExt(0).sqrt() == QExt(0)
    assert QExt(3).sqrt() is None and QExt(1, 1).sqrt() is None


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(Fraction, st.integers(0, 10**60), denominators),
        st.integers(0, 10**6),
        st.floats(0, 1e6),
    ),
    st.one_of(
        st.integers(0, 300).map(lambda k: Fraction(1, 2**k)),
        st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**40)),
        st.integers(1, 5),
        st.floats(1e-30, 4),
    ),
)
def test_iter_sqrt_matches_its_fraction_body(x, e):
    assert iter_sqrt(x, e) == fraction_iter_sqrt(x, e)


@pytest.mark.parametrize("x, e", [(-1, Fraction(1, 2)), (Fraction(-1, 3), 1), (2, 0), (2, Fraction(-1, 2))])
def test_iter_sqrt_refuses_what_its_fraction_body_refuses(x, e):
    with pytest.raises(ValueError) as want:
        fraction_iter_sqrt(x, e)
    with pytest.raises(ValueError) as got:
        iter_sqrt(x, e)
    assert str(got.value) == str(want.value)


# --- against sympy, with an exact sqrt(2) ----------------------------------------


small_qexts = st.builds(
    QExt,
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)),
)


def to_sympy(sp, x):
    x = as_qext(x)
    a, b = (sp.Rational(f.numerator, f.denominator) for f in (x.a, x.b))
    return a + b * sp.sqrt(2)


def equal_in_sympy(sp, expr, x: QExt) -> bool:
    return sp.expand(sp.radsimp(expr - to_sympy(sp, x))) == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(OPS)), small_qexts, small_qexts)
def test_operators_and_sign_agree_with_sympy(op, x, y):
    sp = pytest.importorskip("sympy")
    assume(op != "/" or y)
    expr = OPS[op](to_sympy(sp, x), to_sympy(sp, y))
    got = OPS[op](x, y)
    assert equal_in_sympy(sp, expr, got)
    assert got.sign() == int(sp.sign(expr))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_qexts.map(lambda r: r * r), small_qexts))
def test_sqrt_agrees_with_sympy(x):
    sp = pytest.importorskip("sympy")
    from sympy.polys.numberfields import to_number_field
    from sympy.polys.polyerrors import IsomorphismFailed

    if x.sign() < 0:
        with pytest.raises(ValueError):
            x.sqrt()
        return
    root = sp.sqrt(to_sympy(sp, x))
    got = x.sqrt()
    try:
        in_field = to_number_field(root, sp.sqrt(2))
    except IsomorphismFailed:
        assert got is None
        return
    assert got is not None
    assert got.sign() >= 0
    assert equal_in_sympy(sp, in_field.as_expr(), got) or equal_in_sympy(sp, -in_field.as_expr(), got)
    assert equal_in_sympy(sp, to_sympy(sp, x), got * got)
