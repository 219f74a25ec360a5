"""Differential tests for the arithmetic fast paths.

Each fast path is checked against the slower rule it replaces:

- `QExt` division by d*sqrt(2) against the conjugate formula, which
  still serves every other divisor;
- the closed-form `iter_sqrt` against the bisection loop it replaced;
- the gates on a state's lanes (integer lanes times one exact factor on
  the exact backend) against gates that work coefficient by coefficient
  on CScalars, as qnet's gates did before the integer lanes.

`run_circuit`, which renormalizes only where the backend needs it, is
checked against a fold that normalizes after every gate in
`test_interpreter.py::TestEvaluationProperties::test_matches_manual_fold`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qnet import (
    EXACT,
    ApproxBackend,
    CScalar,
    QExt,
    QState,
    gate_CN,
    gate_H,
    gate_I,
    gate_M,
    gate_X,
    gate_Z,
    iter_sqrt,
    make_qubit,
    normalize,
    tensor_product,
    zero_qstate,
)

from support import rand_circuit_ops, rand_draws, rand_state, rand_unit_pair

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


# --- gates on CScalar coefficients, one at a time ----------------------------------


def cscalar_gate(amps, nqubits, backend, op, draw=None):
    """One gate on a tuple of CScalars; returns (amps, M outcome or None)."""
    kind, q = op[0], op[-1]
    mask = 1 << (nqubits - 1 - q)
    if kind == "X":
        return tuple(amps[i ^ mask] for i in range(len(amps))), None
    if kind == "Z":
        return tuple(-c if i & mask else c for i, c in enumerate(amps)), None
    if kind == "H":
        root2 = backend.sqrt_two()
        out = list(amps)
        for i in range(len(amps)):
            if not i & mask:
                lo, hi = amps[i], amps[i | mask]
                out[i] = (lo + hi) / root2
                out[i | mask] = (lo - hi) / root2
        return tuple(out), None
    if kind == "I":
        return amps, None
    if kind == "CN":
        cmask = 1 << (nqubits - 1 - op[1])
        return tuple(amps[i ^ mask] if i & cmask else amps[i] for i in range(len(amps))), None
    zero_side = total = backend.zero
    for i, c in enumerate(amps):
        total = total + c.norm_sq()
        if not i & mask:
            zero_side = zero_side + c.norm_sq()
    outcome = backend.sign(zero_side / total - draw) <= 0
    zero = CScalar(backend.zero, backend.zero)
    return tuple(c if bool(i & mask) == outcome else zero for i, c in enumerate(amps)), outcome


def cscalar_normalize(amps, backend):
    """(amps, scale_sq): divided by the root of the squared norm, or the
    squared norm deferred when the root is not in the field."""
    nsq = backend.zero
    for c in amps:
        nsq = nsq + c.norm_sq()
    root = backend.sqrt(nsq)
    if root is None:
        return amps, nsq
    return tuple(c / root for c in amps), backend.one


LIBRARY_GATES = {"X": gate_X, "Z": gate_Z, "H": gate_H, "I": gate_I, "CN": gate_CN}


def outcome_of(state, q):
    mask = 1 << (state.nqubits - 1 - q)
    return any(c for i, c in enumerate(state.amps) if i & mask)


BACKENDS = {"exact": EXACT, "approx": ApproxBackend(Fraction(1, 10**6))}


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 6), ngates=st.integers(0, 24))
def test_lane_gates_match_cscalar_gates(name, seed, nqubits, ngates):
    # every coefficient, scale_sq and M outcome after every gate, from a
    # random unnormalized state whose squared norm is mostly not a square
    # (so exact normalization is mostly deferred)
    backend = BACKENDS[name]
    rng = random.Random(seed)
    start = rand_state(rng, nqubits)
    amps = tuple(backend.cscalar(c) for c in start.amps)
    ops = rand_circuit_ops(rng, nqubits, ngates)
    draws = rand_draws(rng, len(ops))
    state = normalize(QState(nqubits, amps, backend.one, backend))
    amps, scale_sq = cscalar_normalize(amps, backend)
    assert state.amps == amps and state.scale_sq == scale_sq
    for op, draw in zip(ops, draws):
        if op[0] == "M":
            state = gate_M(state, op[1], draw)
            amps, outcome = cscalar_gate(amps, nqubits, backend, op, draw)
            assert outcome_of(state, op[1]) == outcome
        else:
            state = LIBRARY_GATES[op[0]](state, *op[1:])
            amps, _ = cscalar_gate(amps, nqubits, backend, op)
        if op[0] == "M" or backend.normalizes_after_unitaries:
            state = normalize(state)
            amps, scale_sq = cscalar_normalize(amps, backend)
        assert state.amps == amps
        assert state.scale_sq == scale_sq


def normalized_state(rng):
    alpha, beta = rand_unit_pair(rng)
    return tensor_product(make_qubit(alpha, beta), zero_qstate(2))


def deferred_state(rng):
    state = normalize(rand_state(rng, 3))
    while state.scale_sq == 1:
        state = normalize(rand_state(rng, 3))
    return state


@pytest.mark.parametrize("m", (1, 2, 7, 500))
@pytest.mark.parametrize("make", (normalized_state, deferred_state))
def test_repeated_h_reduces_back(make, m):
    # H^2 = I: 2m H gates double every integer m times and halve unit m
    # times; reducing takes the factor 2^m back out of the integers
    state = make(random.Random(m))
    out = state
    for _ in range(2 * m):
        out = gate_H(out, 1)
    assert out.amps == state.amps and out.scale_sq == state.scale_sq
    if state.scale_sq == 1:
        assert out == state
    assert max(abs(x) for lane in out.lanes for x in lane).bit_length() > m
    reduced, expected = out.reduced(), state.reduced()
    assert reduced.lanes == expected.lanes and reduced.unit == expected.unit
