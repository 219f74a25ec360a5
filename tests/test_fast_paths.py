"""Differential tests for the arithmetic fast paths.

Each fast path is checked against the slower rule it replaces:

- `QExt` division by d*sqrt(2) and by rationals against the conjugate
  formula, which now serves every divisor (``test_integer_scalar.py``
  checks every `QExt` operation against its old Fraction formulas and
  against sympy);
- the closed-form `iter_sqrt` against the bisection loop it replaced;
- the gates, `tensor_product` and `narrow_to_qubit` on a state's integer
  lanes times one factor, on both backends, against code that works
  coefficient by coefficient on CScalars, as qnet did before the integer
  lanes.  These test-side copies are the only CScalar gate code left; they
  serve as the oracle;
- `physical_amplitudes`, which rounds every decimal in integers from the
  lanes, against the Fraction path it replaced (a Fraction per part,
  ``approx_of_parts`` and ``format_fixed``'s rounding), on parts that sit
  exactly on a half-unit tie as well as random ones;
- the CScalar view of unreduced lanes, built without reducing them,
  against the view of the reduced state, value and text;
- state equality and the approximate backend's ``max_component_gap``,
  decided on the lanes, against the same comparisons of the two views.

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
    EntangledError,
    NotRepresentableError,
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
    narrow_to_qubit,
    normalize,
    tensor_product,
    to_backend,
    zero_qstate,
)
from qnet.qstate import _cscalars, physical_amplitudes
from qnet.teleport import max_component_gap
from qnet.scalar import approx_of_parts, format_cscalar

from support import (
    rand_circuit_ops,
    rand_cscalar,
    rand_draws,
    rand_state,
    rand_unit_pair,
)

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
        root2 = backend.sqrt_two
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


def assert_sqrt2_lanes_zero(state):
    # an approximate scalar is a rational, so its sqrt(2) parts are zero
    if state.backend is BACKENDS["approx"]:
        assert not any(state.lanes[1]) and not any(state.lanes[3])


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
    amps = tuple(to_backend(c, backend) for c in start.amps)
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
        assert_sqrt2_lanes_zero(state)


# --- tensor_product and narrow_to_qubit on CScalar coefficients --------------------


def cscalar_products(xs, ys):
    """tensor_product on CScalars: every product x * y, x's index leftmost."""
    return tuple(x * y for x in xs for y in ys)


def cscalar_narrow(state, n):
    """narrow_to_qubit on CScalars: the qubit's (alpha, beta), or the type of
    the error it raises."""
    mask = 1 << (state.nqubits - 1 - n)
    amps = state.amps
    rows = [
        (amps[i], amps[i | mask])
        for i in range(len(amps))
        if not i & mask and (amps[i] or amps[i | mask])
    ]
    if not rows:
        return ValueError
    a0, a1 = rows[0]
    if any(x0 * a1 != x1 * a0 for x0, x1 in rows[1:]):
        return EntangledError
    root = state.backend.sqrt(a0.norm_sq() + a1.norm_sq())
    if root is None:
        return NotRepresentableError
    return a0 / root, a1 / root


_PHASES = (
    CScalar(QExt(1)),
    CScalar(QExt(-1)),
    CScalar(QExt(0), QExt(1)),
    CScalar(QExt(0), QExt(-1)),
)


def factor_amps(rng, nqubits, backend):
    """Coefficients of a random unnormalized factor state: phases 1, -1, i,
    -i and zeros (so a product keeps an in-field row norm), or random
    Q[sqrt(2)](i) values; on the approximate backend, its rationals."""
    if rng.random() < 0.5:
        amps = [rng.choice(_PHASES + (CScalar(QExt(0)),)) for _ in range(1 << nqubits)]
    else:
        amps = [rand_cscalar(rng) for _ in range(1 << nqubits)]
    if not any(amps):
        amps[0] = _PHASES[0]
    return tuple(to_backend(c, backend) for c in amps)


def lane_state(nqubits, amps, backend, rng):
    """A state over `amps`, normalized (often deferred on the exact backend)
    half of the time."""
    state = QState(nqubits, amps, backend.one, backend)
    if any(amps) and rng.random() < 0.5:
        state = normalize(state)
    return state


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), na=st.integers(1, 3), nb=st.integers(1, 3))
def test_lane_tensor_matches_cscalar_products(name, seed, na, nb):
    backend = BACKENDS[name]
    rng = random.Random(seed)
    a = lane_state(na, factor_amps(rng, na, backend), backend, rng)
    b = lane_state(nb, factor_amps(rng, nb, backend), backend, rng)
    out = tensor_product(a, b)
    assert out.amps == cscalar_products(a.amps, b.amps)
    assert out.scale_sq == a.scale_sq * b.scale_sq
    assert_sqrt2_lanes_zero(out)


def narrow_input(rng, kind, left, right, backend):
    """A (left + 1 + right)-qubit state to narrow to qubit `left`: a product
    around one qubit, a random state (almost always entangled), or zero."""
    nqubits = left + 1 + right
    if kind == "zero":
        amps = (CScalar(backend.zero, backend.zero),) * (1 << nqubits)
    elif kind == "random":
        amps = factor_amps(rng, nqubits, backend)
    else:
        if rng.random() < 0.5:
            pair = rand_unit_pair(rng)
        else:
            pair = (rand_cscalar(rng), rand_cscalar(rng))
        qubit = tuple(to_backend(c, backend) for c in pair)
        if not any(qubit):
            qubit = factor_amps(rng, 1, backend)
        amps = cscalar_products(
            cscalar_products(factor_amps(rng, left, backend), qubit),
            factor_amps(rng, right, backend),
        )
    return lane_state(nqubits, amps, backend, rng)


def check_narrow(state, n):
    """narrow_to_qubit agrees with the CScalar narrowing; returns the outcome."""
    expected = cscalar_narrow(state, n)
    if isinstance(expected, type):
        with pytest.raises(expected):
            narrow_to_qubit(state, n)
        return expected
    out = narrow_to_qubit(state, n)
    assert out.amps == expected
    assert out.scale_sq == state.backend.one
    assert_sqrt2_lanes_zero(out)
    return "qubit"


NARROW_KINDS = ("product", "random", "zero")


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(NARROW_KINDS),
    left=st.integers(0, 2),
    right=st.integers(0, 2),
)
def test_lane_narrow_matches_cscalar_narrow(name, seed, kind, left, right):
    backend = BACKENDS[name]
    rng = random.Random(seed)
    check_narrow(narrow_input(rng, kind, left, right, backend), left)


@pytest.mark.parametrize("name", BACKENDS)
def test_narrow_inputs_reach_every_outcome(name):
    # the inputs above reach each outcome, deferred states included; the
    # approximate backend has a root for every norm
    backend = BACKENDS[name]
    outcomes, deferred = set(), set()
    rng = random.Random(7)
    for _ in range(120):
        left, right = rng.randrange(3), rng.randrange(3)
        state = narrow_input(rng, rng.choice(NARROW_KINDS), left, right, backend)
        outcome = check_narrow(state, left)
        outcomes.add(outcome)
        if state.scale_sq != backend.one:
            deferred.add(outcome)
    expected = {"qubit", EntangledError, ValueError}
    if name == "exact":
        expected.add(NotRepresentableError)
        assert {"qubit", EntangledError, NotRepresentableError} <= deferred
    assert outcomes == expected


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


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4), factor=st.integers(2, 10**6))
def test_view_of_unreduced_lanes_equals_the_reduced_view(name, seed, nqubits, factor):
    # the view does not reduce first: its Fractions reduce themselves
    backend = BACKENDS[name]
    rng = random.Random(seed)
    size = 1 << nqubits

    def lane(multiplier):
        return tuple(multiplier * rng.randint(-99, 99) for _ in range(size))

    # rational parts even, sqrt(2) parts zero on the approximate backend
    sqrt2_factor = factor if backend is EXACT else 0
    lanes = (lane(2 * factor), lane(sqrt2_factor), lane(2 * factor), lane(sqrt2_factor))
    unit = backend.from_parts(Fraction(rng.randint(1, 99), rng.randint(1, 99)), rng.randint(-9, 9))
    state = QState.from_lanes(nqubits, lanes, unit, backend.one, backend)
    reduced = state.reduced()
    if any(map(any, lanes)):
        assert reduced.lanes != lanes
    view, reduced_view = _cscalars(lanes, unit, backend), reduced.amps
    assert view == reduced_view
    assert [format_cscalar(c) for c in view] == [format_cscalar(c) for c in reduced_view]


@pytest.mark.parametrize("make", (normalized_state, deferred_state))
def test_coeff_equals_the_view_entry(make):
    state = make(random.Random(5))
    for s in (state, gate_H(gate_H(state, 1), 2)):
        amps = s.amps
        assert [s.coeff(i) for i in range(len(amps))] == list(amps)


# --- decimal output from the lanes ----------------------------------------------


def fraction_path_root(state, digits):
    """(fine, root) as the Fraction path took them: each part is
    approximated to fine = guard / 2^k and the root of a deferred scale_sq
    is iter_sqrt of the 4^k-scaled scale_sq, divided by 2^k."""
    backend = state.backend
    k, scale_sq = 0, state.scale_sq
    while backend.sign(scale_sq - 1) < 0:
        k, scale_sq = k + 1, scale_sq * 4
    guard = Fraction(1, 8 * 10 ** (digits + 2))
    if state.scale_sq == backend.one:
        return guard, Fraction(1)
    root = iter_sqrt(approx_of_parts(*backend.parts(scale_sq), guard), guard)
    return guard / (1 << k), root / (1 << k)


def fraction_path_decimals(state, digits):
    """physical_amplitudes as a Fraction per part: approx_of_parts, the
    root, then format_fixed's rounding of x * 10^digits."""
    fine, root = fraction_path_root(state, digits)
    parts = state.backend.parts
    return [
        tuple(round(approx_of_parts(*parts(z), fine) / root * 10**digits) for z in (c.re, c.im))
        for c in state.amps
    ]


def random_sqrt2_part(rng, backend):
    """b of a + b*sqrt(2): zero, |b| below 1, or |b| above 1 (up to 10^6);
    always zero on the approximate backend."""
    if backend is not EXACT or rng.random() < 0.2:
        return Fraction(0)
    sign = rng.choice((1, -1))
    if rng.random() < 0.5:
        return sign * Fraction(rng.randint(1, 999), 1000)
    return sign * Fraction(rng.randint(1001, 10**9), 1000)


def decimal_input(rng, backend, digits, deferred, exponent):
    """A state whose parts are random or sit exactly on a half-unit tie of
    the Fraction path, over lanes times w and unit / w for a random w."""
    nqubits = rng.randint(1, 2)
    if deferred:
        scale = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * Fraction(10) ** exponent
        scale_sq = backend.from_parts(scale, scale * rng.randint(0, 5) / 7)
    else:
        scale_sq = backend.one
    probe = QState(nqubits, [CScalar(backend.one)] * (1 << nqubits), scale_sq, backend)
    fine, root = fraction_path_root(probe, digits)
    amps = []
    for _ in range(1 << nqubits):
        kind = rng.random()
        b = random_sqrt2_part(rng, backend)
        if kind < 0.15:
            parts = [(0, 0), (0, 0)]
        elif kind < 0.6:
            # ties at t and t + 1: one of them is odd, so rounding either
            # way off an exact tie shows
            t = rng.randint(-2 * 10**digits, 2 * 10**digits)
            stand_in = iter_sqrt(2, fine / max(1, abs(b))) if b else 0
            parts = [
                ((u + Fraction(1, 2)) * root / 10**digits - b * stand_in, b) for u in (t, t + 1)
            ]
        else:
            parts = [
                (Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), random_sqrt2_part(rng, backend))
                for _ in range(2)
            ]
        amps.append(CScalar(*(backend.from_parts(a, b) for a, b in parts)))
    state = QState(nqubits, amps, scale_sq, backend)
    # the same values over other lanes: (a + b*sqrt(2)) * (u + v*sqrt(2)),
    # with v = 0 on the approximate backend, whose sqrt(2) lanes stay zero
    u = rng.choice((1, -1)) * rng.randint(1, 50)
    v = rng.randint(-50, 50) if backend is EXACT else 0
    re_a, re_b, im_a, im_b = state.lanes
    lanes = [
        [x * u + 2 * y * v for x, y in zip(re_a, re_b)],
        [x * v + y * u for x, y in zip(re_a, re_b)],
        [x * u + 2 * y * v for x, y in zip(im_a, im_b)],
        [x * v + y * u for x, y in zip(im_a, im_b)],
    ]
    unit = state.unit / backend.from_parts(u, v)
    return QState.from_lanes(nqubits, map(tuple, lanes), unit, scale_sq, backend)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    digits=st.integers(1, 60),
    deferred=st.booleans(),
    exponent=st.integers(-40, 40),
)
def test_integer_decimals_match_the_fraction_path(name, seed, digits, deferred, exponent):
    backend = BACKENDS[name]
    state = decimal_input(random.Random(seed), backend, digits, deferred, exponent)
    assert physical_amplitudes(state, digits) == fraction_path_decimals(state, digits)


# --- state equality and the approx gap from the lanes -------------------------------


def random_lanes(rng, nqubits, backend):
    """Lanes of zeros, small and large integers; the sqrt(2) lanes are zero
    on the approximate backend."""
    size = 1 << nqubits

    def lane():
        return tuple(
            rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(10**20), 10**20)))
            for _ in range(size)
        )

    zeros = (0,) * size
    if backend is EXACT:
        return lane(), lane(), lane(), lane()
    return lane(), zeros, lane(), zeros


def random_unit(rng, backend):
    """A nonzero unit, with a sqrt(2) part on the exact backend."""
    while True:
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 10 ** rng.randint(0, 12)))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 999)) if backend is EXACT else 0
        if a or b:
            return backend.from_parts(a, b)


def times(lanes, wa, wb):
    """Every lane coefficient times wa + wb*sqrt(2)."""
    re_a, re_b, im_a, im_b = lanes
    return (
        tuple(x * wa + 2 * y * wb for x, y in zip(re_a, re_b)),
        tuple(x * wb + y * wa for x, y in zip(re_a, re_b)),
        tuple(x * wa + 2 * y * wb for x, y in zip(im_a, im_b)),
        tuple(x * wb + y * wa for x, y in zip(im_a, im_b)),
    )


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4), perturb=st.booleans())
def test_lane_equality_matches_the_view(name, seed, nqubits, perturb):
    # the same state written over other lanes and another unit: lanes times
    # w = wa + wb*sqrt(2), unit / w; one changed integer makes it differ
    backend = BACKENDS[name]
    rng = random.Random(seed)
    lanes = random_lanes(rng, nqubits, backend)
    unit = random_unit(rng, backend)
    a = QState.from_lanes(nqubits, lanes, unit, backend.one, backend)
    wa, wb = rng.choice((1, -1, 2, rng.randint(-50, 50) or 3)), 0
    if backend is EXACT:
        wb = rng.choice((0, 1, rng.randint(-50, 50)))
    other = [list(lane) for lane in times(lanes, wa, wb)]
    if perturb:
        lane = rng.choice((0, 1, 2, 3) if backend is EXACT else (0, 2))
        other[lane][rng.randrange(1 << nqubits)] += rng.choice((1, -1))
    b = QState.from_lanes(nqubits, other, unit / backend.from_parts(wa, wb), backend.one, backend)
    assert (a == b) == (a.amps == b.amps) == (not perturb)
    assert (b == a) == (a == b)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4))
def test_lane_gap_matches_the_view(seed, nqubits):
    backend = BACKENDS["approx"]
    rng = random.Random(seed)

    def state():
        lanes = random_lanes(rng, nqubits, backend)
        return QState.from_lanes(nqubits, lanes, random_unit(rng, backend), backend.one, backend)

    def view_gap(a, b):
        gap = Fraction(0)
        for x, y in zip(a.amps, b.amps):
            gap = max(gap, abs(x.re - y.re), abs(x.im - y.im))
        return gap

    a, b = state(), state()
    for x, y in ((a, b), (b, a), (a, a)):
        gap = max_component_gap(x, y)
        assert type(gap) is Fraction and gap == view_gap(x, y)
    assert max_component_gap(a, a) == 0


def test_lane_gap_is_defined_on_the_approximate_backend_only():
    state = zero_qstate(2)
    with pytest.raises(TypeError):
        max_component_gap(state, state)
