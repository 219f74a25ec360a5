"""The shared zero lane.

Every all-zero lane that a state builder, M's collapse or ``reduced()``
hands back is ``ZERO_LANES[length]``, one tuple per lane length, and the
kernels pass that object through by identity instead of scanning it.  The
tests below check:

- the invariant itself, on both backends, for states from every builder
  and after random X/Z/H/I/CN/M sequences with ``normalize``;
- that the skip is only a skip: every gate, ``measure_split``'s collapse and
  ``reduced()`` on a copy rebuilt with fresh zero tuples give the same
  lanes, unit and ``lane_norm``;
- H on a lane with an all-zero |0> or |1> half, which copies the other half
  instead of adding and subtracting, against an index loop;
- that a wide run keeps no kernel cache alive.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qnet import (
    EXACT,
    ApproxBackend,
    CScalar,
    QState,
    RandomStream,
    Term,
    gate_CN,
    gate_H,
    gate_I,
    gate_M,
    gate_X,
    gate_Z,
    make_qubit,
    normalize,
    parse_state,
    run_circuit_traced,
    sort_and_merge,
    tensor_product,
    zero_qstate,
)
from qnet.gates import measure_split
from qnet.qstate import ZERO_LANES, index_to_bits, lane_norm_sq

from support import ops_to_circuit, rand_circuit_ops, rand_draws

BACKENDS = {"exact": EXACT, "approx": ApproxBackend(Fraction(1, 10**6))}
BUILDERS = (
    "zero_qstate", "parse_state", "QState", "sort_and_merge", "from_entries",
    "make_qubit", "tensor_product",
)
LITERALS = ("0", "0", "1", "-1", "1/2", "-3/4", "1/2*s2", "2+s2", "5/3")


def assert_zero_lanes_shared(state):
    for lane in state.lanes:
        assert any(lane) or lane is ZERO_LANES[len(lane)]


def rand_coeff(rng, backend):
    """A coefficient that is zero, real, imaginary or complex, with sqrt(2)
    parts now and then, so that any of the four lanes can come out zero."""
    re, im = (
        backend.from_ints(rng.choice((1, -1, 3)), rng.choice((0, 0, 1, -2)), rng.randint(1, 4))
        for _ in range(2)
    )
    kind = rng.choice(("zero", "re", "im", "both"))
    zero = backend.zero
    return CScalar(re if kind in ("re", "both") else zero, im if kind in ("im", "both") else zero)


def rand_entry(rng, backend):
    """An integer entry (re.a, re.b, im.a, im.b), its sqrt(2) parts zero on
    the approximate backend."""
    parts = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(4)]
    if backend is not EXACT:
        parts[1] = parts[3] = 0
    return tuple(parts)


def built_state(rng, backend, builder, nqubits):
    """A state of `nqubits` qubits made by `builder`, one of ``BUILDERS``;
    it may be the zero vector."""
    size = 1 << nqubits
    if builder == "zero_qstate":
        return zero_qstate(nqubits, backend)
    if builder == "parse_state":
        lines = [
            f"({rng.choice(LITERALS)}, {rng.choice(('0', rng.choice(LITERALS)))})"
            f" | {format(rng.randrange(size), f'0{nqubits}b')}"
            for _ in range(rng.randint(1, size))
        ]
        return parse_state("\n".join(lines), backend)
    if builder == "QState":
        amps = [rand_coeff(rng, backend) for _ in range(size)]
        return QState(nqubits, amps, backend.one, backend)
    if builder == "sort_and_merge":
        terms = [
            Term(rand_coeff(rng, backend), index_to_bits(rng.randrange(size), nqubits))
            for _ in range(rng.randint(0, size))
        ]
        return sort_and_merge(terms, nqubits, backend)
    if builder == "from_entries":
        given = rng.sample(range(size), rng.randint(0, size))
        entries = {i: rand_entry(rng, backend) for i in given}
        return QState.from_entries(nqubits, entries, backend.one, backend.one, backend)
    if builder == "make_qubit":
        alpha, beta = rand_coeff(rng, backend), rand_coeff(rng, backend)
        if not alpha and not beta:
            alpha = CScalar(backend.one, backend.zero)
        state = make_qubit(alpha, beta, backend)
        # one qubit wide: widened by a product with |0...0>
        return tensor_product(state, zero_qstate(nqubits - 1, backend)) if nqubits > 1 else state
    # tensor_product, of two states made by the other builders
    others = BUILDERS[:-1]
    if nqubits == 1:
        return built_state(rng, backend, rng.choice(others), 1)
    left = rng.randint(1, nqubits - 1)
    return tensor_product(
        built_state(rng, backend, rng.choice(others), left),
        built_state(rng, backend, rng.choice(others), nqubits - left),
    )


def fresh_copy(state):
    """`state` over new lanes in which every all-zero lane is a new tuple,
    not the shared one."""
    lanes = tuple(lane if any(lane) else tuple([0] * len(lane)) for lane in state.lanes)
    assert all(a is b for a, b in zip(lanes, state.lanes) if any(a))
    assert not any(lane is ZERO_LANES[len(lane)] for lane in lanes)
    return state.with_lanes(lanes, state.unit, state.lane_norm)


def apply(state, op, draw):
    kind, *qubits = op
    if kind == "M":
        return gate_M(state, qubits[0], draw)
    gate = {"X": gate_X, "Z": gate_Z, "H": gate_H, "I": gate_I, "CN": gate_CN}[kind]
    return gate(state, *qubits)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    nqubits=st.integers(1, 5),
    builder=st.sampled_from(BUILDERS),
    ngates=st.integers(0, 24),
)
def test_every_zero_lane_is_the_shared_one(name, seed, nqubits, builder, ngates):
    backend = BACKENDS[name]
    rng = random.Random(seed)
    state = built_state(rng, backend, builder, nqubits)
    assert_zero_lanes_shared(state)
    if not any(map(any, state.lanes)):
        return
    assert_zero_lanes_shared(state.reduced())
    ops = rand_circuit_ops(rng, nqubits, ngates)
    for op, draw in zip(ops, rand_draws(rng, len(ops))):
        state = apply(state, op, draw)
        assert_zero_lanes_shared(state)
        state = normalize(state)
        assert_zero_lanes_shared(state)
    # and through the interpreter, which normalizes where its backend needs it
    final, events = run_circuit_traced(
        ops_to_circuit(ops, nqubits), state, RandomStream(rand_draws(rng, len(ops)))
    )
    for event in events:
        assert_zero_lanes_shared(event.state)
    assert_zero_lanes_shared(final)


def test_builders_reach_every_lane_pattern():
    # the built states hold each lane both all zero and not, on both backends
    # (the approximate backend's sqrt(2) lanes are always zero)
    for name, backend in BACKENDS.items():
        rng = random.Random(7)
        seen = set()
        for builder in BUILDERS * 30:
            state = built_state(rng, backend, builder, rng.randint(1, 4))
            seen |= {(k, bool(any(lane))) for k, lane in enumerate(state.lanes)}
        lanes = range(4) if name == "exact" else (0, 2)
        assert {(k, nonzero) for k in lanes for nonzero in (False, True)} <= seen
        if name == "approx":
            assert (1, True) not in seen and (3, True) not in seen


def outputs(state):
    """Every gate on every qubit (CN on every ordered pair), both collapses of
    every qubit's measurement, and ``reduced()``: (lanes, unit, lane_norm)
    of each."""
    n = state.nqubits
    made = [gate(state, q) for gate in (gate_X, gate_Z, gate_H, gate_I) for q in range(n)]
    made += [gate_CN(state, c, t) for c in range(n) for t in range(n) if c != t]
    for q in range(n):
        _, collapse = measure_split(state, q)
        made += [collapse(0), collapse(1)]
    made.append(state.reduced())
    return [(out.lanes, out.unit, out.lane_norm) for out in made]


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    nqubits=st.integers(1, 4),
    builder=st.sampled_from(BUILDERS),
    ngates=st.integers(0, 8),
)
def test_fresh_zero_lanes_give_the_same_results(name, seed, nqubits, builder, ngates):
    backend = BACKENDS[name]
    rng = random.Random(seed)
    state = built_state(rng, backend, builder, nqubits)
    if not any(map(any, state.lanes)):
        return
    ops = rand_circuit_ops(rng, nqubits, ngates)
    for op, draw in zip(ops, rand_draws(rng, len(ops))):
        state = normalize(apply(state, op, draw))
    if all(map(any, state.lanes)):
        return  # no zero lane to rebuild
    assert outputs(fresh_copy(state)) == outputs(state)


def reference_h(lanes, nqubits, n):
    """H's integer step on each lane, one index pair at a time."""
    mask = 1 << (nqubits - 1 - n)
    out = []
    for lane in lanes:
        new = list(lane)
        for i in range(len(lane)):
            if not i & mask:
                a, b = lane[i], lane[i | mask]
                new[i], new[i | mask] = a + b, a - b
        out.append(tuple(new))
    return tuple(out)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    nqubits=st.integers(1, 6),
    data=st.data(),
)
def test_h_with_an_all_zero_half_matches_the_index_loop(name, seed, nqubits, data):
    # each lane is all zero, or zero on qubit n's |0> half, or on its |1>
    # half, or dense
    backend = BACKENDS[name]
    rng = random.Random(seed)
    n = data.draw(st.integers(0, nqubits - 1))
    mask = 1 << (nqubits - 1 - n)
    size = 1 << nqubits
    entries = {}
    kinds = [data.draw(st.sampled_from(("zero", "lo", "hi", "dense"))) for _ in range(4)]
    if backend is not EXACT:
        kinds[1] = kinds[3] = "zero"
    for k, kind in enumerate(kinds):
        kept = {"zero": (), "lo": (False,), "hi": (True,), "dense": (False, True)}[kind]
        for i in range(size):
            if bool(i & mask) in kept and rng.random() < 0.7:
                entry = list(entries.get(i, (0, 0, 0, 0)))
                entry[k] = rng.choice((1, -1)) * rng.randint(1, 10**rng.randint(1, 20))
                entries[i] = tuple(entry)
    state = QState.from_entries(nqubits, entries, backend.one, backend.one, backend)
    out = gate_H(state, n)
    assert out.lanes == reference_h(state.lanes, nqubits, n)
    assert out.unit == state.unit / backend.sqrt_two
    x, y = state.lane_norm
    assert out.lane_norm == (2 * x, 2 * y) == lane_norm_sq(*out.lanes)
    assert_zero_lanes_shared(out)


def test_a_wide_run_keeps_no_kernel_cache():
    # a separate process, so that nothing else the suite has imported or
    # cached is counted: after one 14-qubit run whose result is dropped,
    # less than 1 MB stays allocated
    code = (
        "import gc, tracemalloc\n"
        "from qnet import RandomStream, parse_circuit, run_circuit, zero_qstate\n"
        "n = 14\n"
        "lines = [f'H {q}' for q in range(n)] + [f'CN 0 {q}' for q in range(1, n)]\n"
        "circuit = parse_circuit('\\n'.join([f'qubits {n}', *lines, 'Z 3', 'X 5']))\n"
        "state = zero_qstate(n)\n"
        "tracemalloc.start()\n"
        "run_circuit(circuit, state, RandomStream(()))\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1 << 20
