"""Differential tests for the arithmetic fast paths.

Each fast path is checked against the slower rule it replaces:

- `QExt` division by d*sqrt(2) against the conjugate formula, which
  still serves every other divisor;
- the closed-form `iter_sqrt` against the bisection loop it replaced.

`run_circuit`, which renormalizes only where the backend needs it, is
checked against a fold that normalizes after every gate in
`test_interpreter.py::TestEvaluationProperties::test_matches_manual_fold`.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qnet import QExt, iter_sqrt

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
qexts = st.builds(QExt, small_fractions, small_fractions)


def conjugate_quotient(x: QExt, y: QExt) -> tuple[Fraction, Fraction]:
    """(x.a + x.b*s2) * (y.a - y.b*s2) / (y.a^2 - 2*y.b^2), part by part."""
    norm = y.a * y.a - 2 * y.b * y.b
    return (x.a * y.a - 2 * x.b * y.b) / norm, (x.b * y.a - x.a * y.b) / norm


def assert_same_quotient(x: QExt, y: QExt) -> None:
    q = x / y
    assert (q.a, q.b) == conjugate_quotient(x, y)
    assert type(q.a) is Fraction and type(q.b) is Fraction


nonzero = small_fractions.filter(bool)


@given(qexts, nonzero)
def test_division_by_a_multiple_of_sqrt2(x, d):
    assert_same_quotient(x, QExt(0, d))
    assert_same_quotient(x, QExt(0, 1))


@given(qexts, nonzero)
def test_division_by_a_rational(x, d):
    assert_same_quotient(x, QExt(d))
    assert_same_quotient(x, QExt(1))


@given(qexts, qexts.filter(bool))
def test_division_by_a_general_value(x, y):
    assert_same_quotient(x, y)


def bisection_sqrt(x, e) -> Fraction:
    """The bisection loop `iter_sqrt` used before its closed form."""
    x = Fraction(x)
    e = Fraction(e)
    lo = Fraction(0)
    hi = max(Fraction(1), x)
    while hi - lo > e:
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


radicands = st.one_of(
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
    st.integers(0, 64).map(lambda n: Fraction(n * n, 4)),  # exact squares
    st.sampled_from((Fraction(0), Fraction(1), Fraction(2))),
)
tolerances = st.one_of(
    st.fractions(min_value=0, max_value=4, max_denominator=10**30).filter(bool),
    st.integers(0, 80).map(lambda k: Fraction(1, 2**k)),
)


@settings(max_examples=300, deadline=None)
@given(radicands, tolerances)
def test_iter_sqrt_equals_the_bisection(x, e):
    assert iter_sqrt(x, e) == bisection_sqrt(x, e)
