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
  decided on the lanes, against the same comparisons of the two views;
- `normalize` and `narrow_to_qubit`, which take an integer root of the
  lanes' norm sum in Z[sqrt(2)], against the root of the whole squared
  norm by `field_sqrt`, on negative units and units with a sqrt(2)
  part; and the ``lane_norm`` that every state carries against the lane
  sum.

- `measure_split`, which skips the shared zero lane by identity and sums
  only the |0> half, against the split of all four lanes with both halves
  summed (``test_zero_lanes.py`` checks the sharing itself, and the gates
  and ``reduced()`` on fresh zero lanes); and `parse_state`, which sums
  each literal's rationals straight into lanes, against `parse_cscalar`,
  `to_backend` and `sort_and_merge`.

- `branches`, which walks every M outcome with no draws, against
  `run_circuit` with draw 0 for outcome 0 and draw 1 for outcome 1, and
  its probabilities against the shares of `norm_sq` that M keeps.

`run_circuit`, which renormalizes only where the backend needs it, is
checked against a fold that normalizes after every gate in
`test_interpreter.py::TestEvaluationProperties::test_matches_manual_fold`.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qnet import (
    EXACT,
    ParseError,
    ApproxBackend,
    CScalar,
    EntangledError,
    NotRepresentableError,
    QExt,
    QState,
    RandomStream,
    branches,
    gate_CN,
    gate_H,
    gate_I,
    gate_M,
    gate_X,
    gate_Z,
    iter_sqrt,
    make_qubit,
    narrow_to_qubit,
    norm_sq,
    normalize,
    parse_cscalar,
    parse_state,
    run_circuit_traced,
    sort_and_merge,
    tensor_product,
    to_backend,
    zero_qstate,
)
from qnet.gates import _merge, _split, measure_split
from qnet.qstate import (
    MAX_QUBITS,
    ZERO_LANES,
    Term,
    _cscalars,
    _lane_product,
    basis_label,
    index_to_bits,
    lane_norm_sq,
    physical_amplitudes,
)
from qnet.teleport import max_component_gap
from qnet.scalar import approx_of_parts, format_cscalar, int_parts

from support import (
    ops_to_circuit,
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


def from_rationals(backend, a, b):
    """The backend scalar a + b*sqrt(2) of rationals a and b, by ``from_ints``."""
    a, b = Fraction(a), Fraction(b)
    d = a.denominator * b.denominator
    return backend.from_ints(a.numerator * b.denominator, b.numerator * a.denominator, d)


def rationals_of(x):
    """The rationals (a, b) of a backend scalar a + b*sqrt(2)."""
    p, q, d = int_parts(x)
    return Fraction(p, d), Fraction(q, d)


def field_sqrt(backend, x):
    """The square root in the backend's field: ``QExt.sqrt`` (None outside
    Q[sqrt(2)]) or ``iter_sqrt`` at the backend's eps."""
    return x.sqrt() if isinstance(x, QExt) else iter_sqrt(x, backend.eps)


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
    root = field_sqrt(backend, nsq)
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



# --- the branch walk against the draw path ------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 5), ngates=st.integers(0, 16))
def test_branches_match_the_draw_path(name, seed, nqubits, ngates):
    # every branch is the state run_circuit reaches with draw 0 for outcome
    # 0 (taken iff p0 > 0) and draw 1 for outcome 1 (always taken), from a
    # random state that is mostly deferred on the exact backend
    backend = BACKENDS[name]
    rng = random.Random(seed)
    start = rand_state(rng, nqubits)
    amps = tuple(to_backend(c, backend) for c in start.amps)
    state = QState(nqubits, amps, backend.one, backend)
    ops = rand_circuit_ops(rng, nqubits, ngates)
    extra_m = [i for i, op in enumerate(ops) if op[0] == "M"][6:]
    for i in extra_m:  # at most 6 M gates, at most 64 branches
        ops[i] = ("H", ops[i][1])
    circuit = ops_to_circuit(ops, nqubits)
    total = backend.zero
    seen = []
    for outcomes, p, got in branches(circuit, state):
        want, events = run_circuit_traced(circuit, state, RandomStream(outcomes))
        assert (got.lanes, got.unit, got.scale_sq) == (want.lanes, want.unit, want.scale_sq)
        # the probability is the product of each M's kept share of norm_sq
        share, before = backend.one, normalize(state)
        for event in events:
            if event.draw is not None:
                kept = gate_M(before, event.gate.operands[0], event.draw)
                share = share * (norm_sq(kept) / norm_sq(before))
            before = event.state
        assert p == share and backend.sign(p) > 0
        total += p
        seen.append(outcomes)
    assert total == backend.one
    assert seen == sorted(seen)


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
    root = field_sqrt(state.backend, a0.norm_sq() + a1.norm_sq())
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
    unit = from_rationals(backend, Fraction(rng.randint(1, 99), rng.randint(1, 99)), rng.randint(-9, 9))
    state = QState.from_lanes(nqubits, lanes, unit, backend.one, backend, lane_norm_sq(*lanes))
    reduced = state.reduced()
    if any(map(any, lanes)):
        assert reduced.lanes != lanes
    view, reduced_view = _cscalars(zip(*lanes), unit, backend), reduced.amps
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
    root = iter_sqrt(approx_of_parts(*rationals_of(scale_sq), guard), guard)
    return guard / (1 << k), root / (1 << k)


def fraction_path_decimals(state, digits):
    """physical_amplitudes as a Fraction per part: approx_of_parts, the
    root, then format_fixed's rounding of x * 10^digits."""
    fine, root = fraction_path_root(state, digits)
    return [
        tuple(round(approx_of_parts(*rationals_of(z), fine) / root * 10**digits) for z in (c.re, c.im))
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
        scale_sq = from_rationals(backend, scale, scale * rng.randint(0, 5) / 7)
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
        amps.append(CScalar(*(from_rationals(backend, a, b) for a, b in parts)))
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
    unit = state.unit / backend.from_ints(u, v, 1)
    lanes = tuple(map(tuple, lanes))
    return QState.from_lanes(nqubits, lanes, unit, scale_sq, backend, lane_norm_sq(*lanes))


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
    assert physical_amplitudes(state, state.entries(), digits) == fraction_path_decimals(state, digits)


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
            return from_rationals(backend, a, b)


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
    a = QState.from_lanes(nqubits, lanes, unit, backend.one, backend, lane_norm_sq(*lanes))
    wa, wb = rng.choice((1, -1, 2, rng.randint(-50, 50) or 3)), 0
    if backend is EXACT:
        wb = rng.choice((0, 1, rng.randint(-50, 50)))
    other = [list(lane) for lane in times(lanes, wa, wb)]
    if perturb:
        lane = rng.choice((0, 1, 2, 3) if backend is EXACT else (0, 2))
        other[lane][rng.randrange(1 << nqubits)] += rng.choice((1, -1))
    b = QState.from_lanes(
        nqubits, other, unit / backend.from_ints(wa, wb, 1), backend.one, backend, lane_norm_sq(*other)
    )
    assert (a == b) == (a.amps == b.amps) == (not perturb)
    assert (b == a) == (a == b)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4))
def test_lane_gap_matches_the_view(seed, nqubits):
    backend = BACKENDS["approx"]
    rng = random.Random(seed)

    def state():
        lanes = random_lanes(rng, nqubits, backend)
        unit = random_unit(rng, backend)
        return QState.from_lanes(nqubits, lanes, unit, backend.one, backend, lane_norm_sq(*lanes))

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


# --- the carried lane norm, and normalization from it -------------------------------


def assert_norm_carried(state):
    assert state.lane_norm is not None
    assert state.lane_norm == lane_norm_sq(*state.lanes)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    nqubits=st.integers(1, 6),
    ngates=st.integers(0, 24),
    start=st.sampled_from(("zero", "rand_state")),
)
def test_carried_lane_norm_equals_the_lane_sum(name, seed, nqubits, ngates, start):
    # after every gate, every reduced() and every normalize of a random run
    backend = BACKENDS[name]
    rng = random.Random(seed)
    if start == "zero":
        state = zero_qstate(nqubits, backend)
    else:
        amps = (to_backend(c, backend) for c in rand_state(rng, nqubits).amps)
        state = QState(nqubits, amps, backend.one, backend)
    state = normalize(state)
    assert_norm_carried(state)
    ops = rand_circuit_ops(rng, nqubits, ngates)
    for op, draw in zip(ops, rand_draws(rng, len(ops))):
        if op[0] == "M":
            state = gate_M(state, op[1], draw)
        else:
            state = LIBRARY_GATES[op[0]](state, *op[1:])
        assert_norm_carried(state)
        assert_norm_carried(state.reduced())
        if op[0] == "M" or backend.normalizes_after_unitaries:
            state = normalize(state)
            assert_norm_carried(state)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 3))
def test_every_state_carries_its_lane_sum(name, seed, nqubits):
    # every way of making a state, from exact inputs with sqrt(2) parts,
    # leaves lane_norm == lane_norm_sq(*lanes); none leaves it unknown
    backend = BACKENDS[name]
    rng = random.Random(seed)
    exact = rand_state(rng, nqubits)
    amps = [to_backend(c, backend) for c in exact.amps]
    terms = [Term(c, index_to_bits(i, nqubits)) for i, c in enumerate(exact.amps)]
    text = "".join(
        f"{format_cscalar(c)} | {basis_label(i, nqubits)}\n" for i, c in enumerate(exact.amps)
    )
    alpha, beta = rand_unit_pair(rng)
    qubit = make_qubit(alpha, beta, backend)
    lanes = random_lanes(rng, nqubits, backend)
    unit = random_unit(rng, backend)
    made = [
        QState(nqubits, amps, backend.one, backend),
        qubit,
        sort_and_merge(terms + terms[:1], nqubits, backend),
        parse_state(text, backend),
        zero_qstate(nqubits, backend),
        QState.from_entries(nqubits, dict(enumerate(zip(*lanes))), unit, backend.one, backend),
    ]
    state = made[0]
    made += [tensor_product(state, qubit), tensor_product(qubit, state)]
    made.append(narrow_to_qubit(tensor_product(qubit, zero_qstate(nqubits, backend)), 0))
    n = rng.randrange(nqubits)
    made += [gate(state, n) for gate in (gate_X, gate_Z, gate_H, gate_I)]
    if nqubits > 1:
        made.append(gate_CN(state, n, (n + 1) % nqubits))
    made.append(gate_M(state, n, rand_draws(rng, 1)[0]))
    made += [measure_split(state, n)[1](outcome) for outcome in (0, 1)]
    made += [normalize(x) for x in made if any(map(any, x.lanes))]
    made += [x.reduced() for x in made]
    for x in made:
        assert_norm_carried(x)


def qext_path_normalize(state):
    """normalize by the squared norm as one backend scalar and its root by
    `field_sqrt`, as qnet took it before the integer root: (lanes,
    unit, scale_sq), or the ValueError it raises."""
    state = state.reduced()
    backend = state.backend
    nsq = backend.from_ints(*lane_norm_sq(*state.lanes), 1) * (state.unit * state.unit)
    if backend.sign(nsq) == 0:
        raise ValueError("cannot normalize the zero state")
    root = field_sqrt(backend, nsq)
    if root is None:
        return state.lanes, state.unit, nsq
    unit = state.unit if root == backend.one else state.unit / root
    return state.lanes, unit, backend.one


def qext_path_narrow(state, n):
    """narrow_to_qubit with that root: (lanes, unit), or the error type."""
    mask = 1 << (state.nqubits - 1 - n)
    coeffs = list(zip(*state.lanes))
    rows = [
        (coeffs[i], coeffs[i | mask])
        for i in range(len(coeffs))
        if not i & mask and (any(coeffs[i]) or any(coeffs[i | mask]))
    ]
    if not rows:
        return ValueError
    a0, a1 = rows[0]
    if any(_lane_product(x0, a1) != _lane_product(x1, a0) for x0, x1 in rows[1:]):
        return EntangledError
    backend = state.backend
    x, y = lane_norm_sq(*zip(a0, a1))
    root = field_sqrt(backend, backend.from_ints(x, y, 1) * (state.unit * state.unit))
    if root is None:
        return NotRepresentableError
    return tuple(zip(a0, a1)), state.unit / root


#: Integer weights whose squares sum to a square or to twice one, so lanes
#: of w * z for one z in Z[sqrt(2)] have a norm sum with a root in Z[sqrt(2)].
_SQUARE_WEIGHTS = ((1,), (1, 1), (3, 4), (1, 2, 2), (1, 1, 1, 1), (2, 4, 4, 5), (1, 1, 3, 3, 4))


def norm_input_lanes(rng, nqubits, backend, kind):
    """Lanes with a square norm sum ("square": weights times one z and a
    phase 1, -1, i or -i), random lanes ("random", mostly not square) or
    zero lanes, multiplied half of the time by a common factor or sqrt(2)
    that ``reduced()`` takes out again."""
    size = 1 << nqubits
    if kind == "zero":
        return ((0,) * size,) * 4
    if kind == "random":
        lanes = random_lanes(rng, nqubits, backend)
    else:
        weights = rng.choice([w for w in _SQUARE_WEIGHTS if len(w) <= size])
        a = rng.choice((1, -1)) * rng.randint(1, 10**rng.randint(1, 12))
        b = rng.randint(-99, 99) if backend is EXACT else 0
        lanes = [[0] * size for _ in range(4)]
        for w, i in zip(weights, rng.sample(range(size), len(weights))):
            sign, part = rng.choice((1, -1)), rng.choice((0, 2))
            lanes[part][i], lanes[part + 1][i] = sign * w * a, sign * w * b
    if rng.random() < 0.5:
        wa, wb = rng.choice(((rng.randint(2, 10**6), 0), (0, 1), (2, 2)))
        if backend is not EXACT:
            wa, wb = wa or 2, 0
        lanes = times(lanes, wa, wb)
    return tuple(map(tuple, lanes))


def norm_input(rng, nqubits, backend, kind):
    """A state over `norm_input_lanes` and a random unit, negative or with a
    sqrt(2) part; its scale_sq is 1 or deferred, its lane_norm passed to
    ``from_lanes``."""
    lanes = norm_input_lanes(rng, nqubits, backend, kind)
    scale_sq = backend.one
    if rng.random() < 0.3:
        scale_sq = backend.from_ints(rng.randint(1, 99), 0, rng.randint(1, 99))
    norm = lane_norm_sq(*lanes)
    return QState.from_lanes(nqubits, lanes, random_unit(rng, backend), scale_sq, backend, norm)


NORM_KINDS = ("square", "random", "zero")


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4), kind=st.sampled_from(NORM_KINDS))
def test_normalize_matches_the_qext_path(name, seed, nqubits, kind):
    backend = BACKENDS[name]
    state = norm_input(random.Random(seed), nqubits, backend, kind)
    try:
        expected = qext_path_normalize(state)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            normalize(state)
        assert not any(map(any, state.lanes))
        return
    out = normalize(state)
    assert (out.lanes, out.unit, out.scale_sq) == expected
    assert_norm_carried(out)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    left=st.integers(0, 2),
    right=st.integers(0, 2),
    kinds=st.tuples(*[st.sampled_from(NORM_KINDS)] * 3),
)
def test_narrow_matches_the_qext_path(name, seed, left, right, kinds):
    # a product of three lane states, over one new unit: separable in
    # qubit `left` unless a factor is zero
    backend = BACKENDS[name]
    rng = random.Random(seed)
    factors = [
        norm_input(rng, width, backend, kind)
        for width, kind in zip((left, 1, right), kinds)
        if width
    ]
    product = factors[0]
    for factor in factors[1:]:
        product = tensor_product(product, factor)
    state = product.with_lanes(product.lanes, random_unit(rng, backend), product.lane_norm)
    expected = qext_path_narrow(state, left)
    if isinstance(expected, type):
        with pytest.raises(expected):
            narrow_to_qubit(state, left)
        return
    out = narrow_to_qubit(state, left)
    assert (out.lanes, out.unit, out.scale_sq) == (*expected, backend.one)
    assert_norm_carried(out)


@pytest.mark.parametrize("name", BACKENDS)
def test_norm_inputs_reach_every_outcome(name):
    # the inputs above reach an in-field root and a deferred one, and every
    # narrowing outcome, from negative units and units with a sqrt(2) part
    backend = BACKENDS[name]
    rng = random.Random(11)
    scales, narrowed, units = set(), set(), set()
    for _ in range(200):
        state = norm_input(rng, rng.randint(1, 3), backend, rng.choice(NORM_KINDS[:2]))
        if not any(map(any, state.lanes)):
            continue
        scales.add(normalize(state).scale_sq == backend.one)
        units.add((backend.sign(state.unit), bool(int_parts(state.unit)[1])))
        product = tensor_product(state, norm_input(rng, 1, backend, rng.choice(NORM_KINDS)))
        outcome = qext_path_narrow(product, product.nqubits - 1)
        narrowed.add(outcome if isinstance(outcome, type) else "qubit")
    assert scales == ({True, False} if name == "exact" else {True})
    expected = {"qubit", ValueError}
    if name == "exact":
        expected |= {NotRepresentableError}
        assert {(-1, True), (1, True)} <= units
    else:
        assert units == {(-1, False), (1, False)}
    assert narrowed == expected


def test_normalize_keeps_the_sign_of_a_negative_unit():
    entries = {0: (1, 0, 0, 0), 1: (1, 0, 0, 0)}
    state = QState.from_entries(1, entries, QExt(Fraction(-1, 3)), QExt(1), EXACT)
    out = normalize(state)
    assert [format_cscalar(c) for c in out.amps] == ["(-1/2*s2, 0)"] * 2
    assert format_cscalar(narrow_to_qubit(state, 0).coeff(1)) == "(-1/2*s2, 0)"


# --- measurement on the nonzero lanes ---------------------------------------------


def full_split(state, n):
    """measure_split as qnet took it before: all four lanes split, both
    halves summed, and all four merged again; `collapse` gives (lanes,
    lane_norm)."""
    mask = 1 << (state.nqubits - 1 - n)
    halves = [_split(lane, mask) for lane in state.lanes]
    sums = tuple(lane_norm_sq(*(h[side] for h in halves)) for side in (0, 1))
    if not sums[0][0] + sums[1][0]:
        raise ValueError("cannot measure the zero state")
    zeros = [0] * (1 << (state.nqubits - 1))

    def collapse(outcome):
        kept = ((zeros, hi) if outcome else (lo, zeros) for lo, hi in halves)
        return tuple(_merge(lo, hi, mask) for lo, hi in kept), sums[outcome]

    return sums, collapse


def as_lanes(lists):
    """Integer lists as lanes, each all-zero one the shared zero lane, as
    the state builders give them."""
    return tuple(tuple(x) if any(x) else ZERO_LANES[len(x)] for x in lists)


def split_input(rng, nqubits, backend, nonzero):
    """A state whose lanes `nonzero` hold integers, at least one of them
    not zero, and whose other lanes are the shared zero lane (all four for
    the zero state); a random unit, scale_sq 1 or deferred, lane_norm
    passed to ``from_lanes``."""
    size = 1 << nqubits
    lanes = [[0] * size for _ in range(4)]
    for k in nonzero:
        for i in range(size):
            lanes[k][i] = rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(10**20), 10**20)))
        lanes[k][rng.randrange(size)] = rng.choice((1, -1)) * rng.randint(1, 10**6)
    lanes = as_lanes(lanes)
    scale_sq = backend.one
    if rng.random() < 0.3:
        scale_sq = backend.from_ints(rng.randint(1, 99), 0, rng.randint(1, 99))
    norm = lane_norm_sq(*lanes)
    return QState.from_lanes(nqubits, lanes, random_unit(rng, backend), scale_sq, backend, norm)


def certain_input(rng, state, n, outcome):
    """`state` with qubit n's other half zeroed, so that `outcome` has
    probability 1; its kept half keeps a nonzero entry, and its lane_norm is
    summed afresh."""
    mask = 1 << (state.nqubits - 1 - n)
    kept = [i for i in range(1 << state.nqubits) if bool(i & mask) == bool(outcome)]
    lanes = [[x if i in kept else 0 for i, x in enumerate(lane)] for lane in state.lanes]
    k = next((k for k, lane in enumerate(state.lanes) if any(lane)), 0)
    if not any(map(any, lanes)):
        lanes[k][rng.choice(kept)] = rng.choice((1, -1)) * rng.randint(1, 10**6)
    lanes = as_lanes(lanes)
    return state.with_lanes(lanes, state.unit, lane_norm_sq(*lanes))


def nonzero_lane_sets(backend):
    # the approximate backend's sqrt(2) lanes (1 and 3) stay zero
    lanes = (0, 1, 2, 3) if backend is EXACT else (0, 2)
    return [c for r in range(1, len(lanes) + 1) for c in itertools.combinations(lanes, r)]


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 6), data=st.data())
def test_measure_split_matches_the_full_split(name, seed, nqubits, data):
    backend = BACKENDS[name]
    rng = random.Random(seed)
    nonzero = data.draw(st.sampled_from([()] + nonzero_lane_sets(backend)))
    state = split_input(rng, nqubits, backend, nonzero)
    n = data.draw(st.integers(0, nqubits - 1))
    # None, or the outcome of probability 1, whose dropped half is all zero
    certain = data.draw(st.sampled_from((None, 0, 1)))
    if nonzero and certain is not None:
        state = certain_input(rng, state, n, certain)
    if not nonzero:
        with pytest.raises(ValueError, match="^cannot measure the zero state$"):
            full_split(state, n)
        with pytest.raises(ValueError, match="^cannot measure the zero state$"):
            measure_split(state, n)
        return
    expected_sums, expected = full_split(state, n)
    sums, collapse = measure_split(state, n)
    assert sums == expected_sums
    for outcome in (0, 1):
        out = collapse(outcome)
        assert (out.lanes, out.lane_norm) == expected(outcome)
        assert (out.nqubits, out.unit, out.scale_sq, out.backend) == (
            state.nqubits, state.unit, state.scale_sq, state.backend
        )
        if outcome == certain:  # nothing to drop: the input's lanes, not copies
            assert all(x is y for x, y in zip(out.lanes, state.lanes))


def test_measure_split_inputs_reach_every_lane_count():
    # one to four nonzero lanes on the exact backend, one or two on the
    # approximate one
    assert sorted({len(k) for k in nonzero_lane_sets(EXACT)}) == [1, 2, 3, 4]
    assert sorted(nonzero_lane_sets(BACKENDS["approx"])) == [(0,), (0, 2), (2,)]


# --- state files straight to lanes ---------------------------------------------------


def term_path_parse(text, backend):
    """parse_state as qnet did it before: each literal to a CScalar by
    `parse_cscalar` and `to_backend`, then `sort_and_merge` of the terms."""
    terms, nqubits = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 2:
            raise ParseError("expected 'cplx | bitstring'", line=lineno)
        try:
            coeff = to_backend(parse_cscalar(parts[0]), backend)
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        bits_text = parts[1].strip()
        if not bits_text or set(bits_text) - {"0", "1"}:
            raise ParseError(f"bad bitstring {bits_text!r}", line=lineno)
        if nqubits is None:
            nqubits = len(bits_text)
            if nqubits > MAX_QUBITS:
                raise ParseError(f"qubit count must be in 1..{MAX_QUBITS}", line=lineno)
        elif len(bits_text) != nqubits:
            raise ParseError(f"bitstring length {len(bits_text)} != {nqubits}", line=lineno)
        terms.append(Term(coeff, tuple(c == "1" for c in bits_text)))
    if nqubits is None:
        raise ParseError("state file contains no terms")
    return sort_and_merge(terms, nqubits, backend)


def real_literal(rng):
    """A real literal in every form of the grammar, sqrt(2) parts of both
    signs and of magnitude above 1 among them."""
    def rat(signed=True):
        num = rng.choice((0, 1, rng.randint(1, 9), rng.randint(1, 10**12)))
        if signed and rng.random() < 0.5:
            num = -num
        den = rng.choice((1, rng.randint(1, 12), rng.randint(1, 10**9)))
        return f"{num}" if den == 1 and rng.random() < 0.5 else f"{num}/{den}"

    form = rng.randrange(6)
    if form == 0:
        return rat()
    if form == 1:
        return f"{rat()}*s2"
    if form == 2:
        return f"{rat()}{rng.choice('+-')}{rat(signed=False)}*s2"
    return f"{rat()}{rng.choice('+-')}s2"


MALFORMED = (
    "(1, 0) 01",
    "(1, 0) | 01 | 1",
    "(1, 0 | 01",
    "(1, 0, 0) | 01",
    "1 | 01",
    "(1/0, 0) | 01",
    "(s2, 0) | 01",
    "(1*s2*s2, 0) | 01",
    "(1+2/0*s2, 0) | 01",
    "(1, 0) | 0a",
    "(1, 0) | ",
    "(1, 0) | 0",
    "(1, 0) | 011",
    f"(1, 0) | {'0' * (MAX_QUBITS + 1)}",
    f"({'9' * 5000}, 0) | 01",
)


def state_file(rng, nqubits, malformed):
    """Shuffled terms with duplicated indices, explicit zero terms, comments
    and blank lines; with `malformed`, one bad line somewhere."""
    lines = []
    for _ in range(rng.randint(1, 3 << nqubits)):
        index = rng.randrange(1 << nqubits)
        if rng.random() < 0.15:
            cplx = rng.choice(("(0, 0)", "(0/5, -0*s2)", "(0+0*s2, 0)"))
        else:
            cplx = f"({real_literal(rng)}, {real_literal(rng)})"
        line = f"{cplx} | {index:0{nqubits}b}"
        lines.append(line + "  # a comment" if rng.random() < 0.2 else line)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "   ", "# a comment line")))
    if malformed:
        bad = rng.choice(MALFORMED)
        if nqubits != 2:
            bad = bad.replace("| 01", f"| {'0' * nqubits}")
        lines.insert(rng.randint(0, len(lines)), bad)
    return "\n".join(lines) + rng.choice(("", "\n"))


PARSE_BACKENDS = {
    "exact": EXACT,
    "approx-1/1000": ApproxBackend(Fraction(1, 1000)),
    "approx-1/10^12": ApproxBackend(),
}


@pytest.mark.parametrize("name", PARSE_BACKENDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4), malformed=st.booleans())
def test_parse_state_matches_the_term_path(name, seed, nqubits, malformed):
    backend = PARSE_BACKENDS[name]
    text = state_file(random.Random(seed), nqubits, malformed)
    try:
        expected = term_path_parse(text, backend)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_state(text, backend)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    state = parse_state(text, backend)
    assert (state.nqubits, state.lanes, state.unit, state.scale_sq, state.lane_norm) == (
        expected.nqubits, expected.lanes, expected.unit, expected.scale_sq, expected.lane_norm
    )
    assert type(state.unit) is type(expected.unit)


def test_parse_state_rounds_each_approximate_term():
    # at eps 1/1000 the sqrt(2) stand-in depends on |b| through the
    # tolerance eps / |b|, so rounding 5/2*s2 and -2*s2 apart differs from
    # rounding their sum 1/2*s2
    backend = ApproxBackend(Fraction(1, 1000))
    state = parse_state("(5/2*s2, 0) | 0\n(-2*s2, 0) | 0\n(1, 0) | 1\n", backend)
    each = backend.from_ints(0, 5, 2) + backend.from_ints(0, -2, 1)
    assert each != backend.from_ints(0, 1, 2)
    assert state.coeff(0).re == each


def test_sort_and_merge_sums_before_it_rounds():
    # duplicates are summed in the terms' own field and the sum rounded
    # once, unlike parse_state, which rounds each literal
    backend = ApproxBackend(Fraction(1, 1000))
    terms = [
        Term(CScalar(QExt(0, Fraction(5, 2))), (False,)),
        Term(CScalar(QExt(0, -2)), (False,)),
        Term(CScalar(QExt(1)), (True,)),
    ]
    merged = sort_and_merge(terms, 1, backend)
    once = sort_and_merge([Term(CScalar(QExt(0, Fraction(1, 2))), (False,)), terms[2]], 1, backend)
    assert (merged.lanes, merged.unit, merged.lane_norm) == (once.lanes, once.unit, once.lane_norm)
    parsed = parse_state("(5/2*s2, 0) | 0\n(-2*s2, 0) | 0\n(1, 0) | 1\n", backend)
    assert merged.coeff(0).re == backend.from_ints(0, 1, 2) != parsed.coeff(0).re


# --- entries in and out ------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 4), deferred=st.booleans())
def test_from_entries_rebuilds_a_state_from_its_entries(name, seed, nqubits, deferred):
    backend = BACKENDS[name]
    rng = random.Random(seed)
    scale_sq = backend.from_ints(rng.randint(1, 99), 0, rng.randint(1, 99)) if deferred else backend.one
    lanes = random_lanes(rng, nqubits, backend)
    state = QState.from_lanes(
        nqubits, lanes, random_unit(rng, backend), scale_sq, backend, lane_norm_sq(*lanes)
    )
    entries = state.entries()
    assert entries == list(zip(*state.lanes))
    again = QState.from_entries(nqubits, dict(enumerate(entries)), state.unit, state.scale_sq, backend)
    assert (again.nqubits, again.lanes, again.unit, again.scale_sq, again.lane_norm) == (
        state.nqubits, state.lanes, state.unit, state.scale_sq, state.lane_norm
    )
    # a sparse dict: every index not given is zero
    kept = {i: entries[i] for i in rng.sample(range(1 << nqubits), rng.randint(0, 1 << nqubits))}
    sparse = QState.from_entries(nqubits, kept, state.unit, state.scale_sq, backend)
    assert sparse.entries() == [kept.get(i, (0, 0, 0, 0)) for i in range(1 << nqubits)]
    assert sparse.lane_norm == lane_norm_sq(*sparse.lanes)
