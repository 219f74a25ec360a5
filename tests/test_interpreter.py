import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import qnet.gates
from qnet import (
    CScalar,
    Circuit,
    Gate,
    QExt,
    RandomStream,
    Term,
    branches,
    count_measurements,
    gate_CN,
    gate_H,
    gate_I,
    gate_M,
    gate_X,
    gate_Z,
    make_qubit,
    normalize,
    parse_circuit,
    run_circuit,
    run_circuit_traced,
    sort_and_merge,
    zero_qstate,
)
from qnet.errors import ParseError, RandomStreamExhausted
from qnet.qstate import QState, index_to_bits
from qnet.scalar import EXACT, ApproxBackend, to_backend

from support import (
    ops_to_circuit,
    rand_circuit_ops,
    rand_draws,
    rand_fraction,
    rand_state,
    scalar_to_float,
    state_to_complex,
    states_identical,
)

INV_SQRT2 = CScalar(QExt(0, F(1, 2)))

FIG1 = "H 0\nCN 0 1"
ALICE = "H 1\nCN 1 2\nCN 0 1\nH 0\nM 0\nM 1"


def bell_state():
    return sort_and_merge(
        [Term(INV_SQRT2, (False, False)), Term(INV_SQRT2, (True, True))], 2
    )


class TestParseCircuit:
    def test_fig1(self):
        circuit = parse_circuit(FIG1, 2)
        assert circuit.gates == (Gate("H", (0,)), Gate("CN", (0, 1)))
        assert circuit.nqubits == 2

    def test_alice(self):
        circuit = parse_circuit(ALICE, 3)
        assert len(circuit.gates) == 6
        assert circuit.gates[1] == Gate("CN", (1, 2))
        assert circuit.gates[4] == Gate("M", (0,))

    def test_self_target_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("CN 0 0", 2)
        assert err.value.line == 1

    def test_header_declares_qubits(self):
        circuit = parse_circuit("qubits 2\nH 0\n")
        assert circuit.nqubits == 2

    def test_header_and_argument_must_agree(self):
        assert parse_circuit("qubits 2\nH 0\n", 2).nqubits == 2
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\nH 0\n", 3)

    def test_qubit_count_required(self):
        with pytest.raises(ParseError):
            parse_circuit("H 0\n")

    def test_comments_and_blanks_skipped(self):
        circuit = parse_circuit("# prep\n\nH 0\n# done\n", 1)
        assert circuit.gates == (Gate("H", (0,)),)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("Y 0", 1),
            ("H", 1),
            ("H 0 1", 1),
            ("H 0\nCN 1", 2),
            ("H -1", 1),
            ("H 0\nH 5", 2),
            ("qubits x", 1),
            ("H 0\nCN 1 1", 2),
            ("H 0\nH 1\nqubits 3", 3),
            ("CN 0 x", 1),
            ("H 0\nX 2", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_circuit(text, 2)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,line", [("qubits \u00b2\nH 0", 1), ("H 0\nH \u00b2", 2)]
    )
    def test_superscript_digits_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_circuit(text, 2)
        assert err.value.line == line

    def test_gate_order_preserved(self):
        circuit = parse_circuit("X 0\nZ 1\nI 0\nM 1", 2)
        assert [g.kind for g in circuit.gates] == ["X", "Z", "I", "M"]


class TestGateAndCircuitValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("Q", (0,))

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            Gate("CN", (0,))

    def test_operand_range_checked_by_circuit(self):
        with pytest.raises(ValueError):
            Circuit((Gate("H", (2,)),), 2)


class TestRandomStream:
    def test_draw_order_and_remaining(self):
        stream = RandomStream([F(1, 4), F(3, 4)])
        assert stream.remaining == 2
        assert stream.draw() == F(1, 4)
        assert stream.draw() == F(3, 4)
        with pytest.raises(RandomStreamExhausted):
            stream.draw()

    def test_range_validated(self):
        with pytest.raises(ValueError):
            RandomStream([F(5, 4)])

    def test_split(self):
        stream = RandomStream([F(0), F(1, 2), F(1)])
        stream.draw()
        head, tail = stream.split(1)
        assert head.remaining == 1 and head.draw() == F(1, 2)
        assert tail.remaining == 1 and tail.draw() == F(1)


class TestCountMeasurements:
    def test_alice(self):
        assert count_measurements(parse_circuit(ALICE, 3)) == 2

    def test_fig1(self):
        assert count_measurements(parse_circuit(FIG1, 2)) == 0

    def test_repeats(self):
        circuit = Circuit((Gate("M", (0,)), Gate("M", (0,)), Gate("M", (1,))), 2)
        assert count_measurements(circuit) == 3


class TestRunCircuit:
    def test_fig1_produces_bell(self):
        out = run_circuit(parse_circuit(FIG1, 2), zero_qstate(2), RandomStream([]))
        assert out == bell_state()

    def test_empty_circuit_normalizes(self):
        rng = random.Random(151)
        for _ in range(20):
            state = rand_state(rng, 2)
            out = run_circuit(Circuit((), 2), state, RandomStream([]))
            assert states_identical(out, normalize(state))

    def test_single_measurement_consumes_stream(self):
        quarter = CScalar(QExt(F(1, 2)))
        state = sort_and_merge(
            [Term(quarter, index_to_bits(i, 2)) for i in range(4)], 2
        )
        stream = RandomStream([F(3, 4)])
        out = run_circuit(Circuit((Gate("M", (0,)),), 2), state, stream)
        expected = sort_and_merge(
            [Term(INV_SQRT2, (True, False)), Term(INV_SQRT2, (True, True))], 2
        )
        assert out == expected
        assert stream.remaining == 0

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(parse_circuit(FIG1, 2), zero_qstate(3), RandomStream([]))

    def test_insufficient_stream_fails_fast(self):
        circuit = parse_circuit("M 0\nM 0", 1)
        stream = RandomStream([F(1, 2)])
        with pytest.raises(RandomStreamExhausted):
            run_circuit(circuit, zero_qstate(1), stream)
        assert stream.remaining == 1  # nothing was consumed


class TestRunCircuitTraced:
    def test_fig1_snapshots(self):
        final, events = run_circuit_traced(
            parse_circuit(FIG1, 2), zero_qstate(2), RandomStream([])
        )
        assert len(events) == 2
        after_h = sort_and_merge(
            [Term(INV_SQRT2, (False, False)), Term(INV_SQRT2, (True, False))], 2
        )
        assert events[0].state == after_h
        assert events[1].state == bell_state()
        assert final == bell_state()
        assert all(e.draw is None for e in events)
        assert [e.step for e in events] == [1, 2]

    def test_empty_trace(self):
        _, events = run_circuit_traced(Circuit((), 1), zero_qstate(1), RandomStream([]))
        assert events == ()

    def test_alice_draw_consumption(self):
        _, events = run_circuit_traced(
            parse_circuit(ALICE, 3),
            zero_qstate(3),
            RandomStream([F(1, 4), F(3, 4)]),
        )
        assert len(events) == 6
        assert [e.draw for e in events] == [None, None, None, None, F(1, 4), F(3, 4)]


def manual_fold(circuit, state, draws):
    """Independent gate-then-normalize fold for the definitional check."""
    draws = list(draws)
    state = normalize(state)
    for gate in circuit.gates:
        if gate.kind == "X":
            state = gate_X(state, gate.operands[0])
        elif gate.kind == "Z":
            state = gate_Z(state, gate.operands[0])
        elif gate.kind == "H":
            state = gate_H(state, gate.operands[0])
        elif gate.kind == "I":
            state = gate_I(state, gate.operands[0])
        elif gate.kind == "CN":
            state = gate_CN(state, gate.operands[0], gate.operands[1])
        else:
            state = gate_M(state, gate.operands[0], draws.pop(0))
        state = normalize(state)
    return state


class TestEvaluationProperties:
    def test_matches_manual_fold(self):
        # run_circuit renormalizes only where the backend needs it (after M
        # alone on the exact backend); the fold renormalizes after every gate
        for backend in (EXACT, ApproxBackend(F(1, 10**6))):
            rng = random.Random(157)
            for _ in range(40):
                nqubits = rng.randint(1, 6)
                ops = rand_circuit_ops(rng, nqubits, rng.randint(0, 8))
                circuit = ops_to_circuit(ops, nqubits)
                draws = rand_draws(rng, count_measurements(circuit))
                exact = rand_state(rng, nqubits)
                amps = tuple(to_backend(c, backend) for c in exact.amps)
                state = QState(nqubits, amps, backend.one, backend)
                expected = manual_fold(circuit, state, draws)
                got = run_circuit(circuit, state, RandomStream(draws))
                assert states_identical(got, expected)

    def test_composition(self):
        rng = random.Random(163)
        for _ in range(30):
            nqubits = rng.randint(1, 3)
            ops1 = rand_circuit_ops(rng, nqubits, rng.randint(0, 5))
            ops2 = rand_circuit_ops(rng, nqubits, rng.randint(0, 5))
            whole = ops_to_circuit(ops1 + ops2, nqubits)
            c1 = ops_to_circuit(ops1, nqubits)
            c2 = ops_to_circuit(ops2, nqubits)
            draws = rand_draws(rng, count_measurements(whole))
            state = rand_state(rng, nqubits)
            combined = run_circuit(whole, state, RandomStream(draws))
            rs1, rs2 = RandomStream(draws).split(count_measurements(c1))
            staged = run_circuit(c2, run_circuit(c1, state, rs1), rs2)
            assert states_identical(combined, staged)

    def test_deterministic(self):
        rng = random.Random(167)
        for _ in range(20):
            nqubits = rng.randint(1, 3)
            ops = rand_circuit_ops(rng, nqubits, rng.randint(1, 8))
            circuit = ops_to_circuit(ops, nqubits)
            draws = rand_draws(rng, count_measurements(circuit))
            state = rand_state(rng, nqubits)
            first = run_circuit(circuit, state, RandomStream(draws))
            second = run_circuit(circuit, state, RandomStream(draws))
            assert states_identical(first, second)

    def test_measurement_free_ignores_stream(self):
        rng = random.Random(173)
        for _ in range(20):
            nqubits = rng.randint(1, 3)
            ops = [op for op in rand_circuit_ops(rng, nqubits, 8) if op[0] != "M"]
            circuit = ops_to_circuit(ops, nqubits)
            state = rand_state(rng, nqubits)
            a = run_circuit(circuit, state, RandomStream([]))
            b = run_circuit(circuit, state, RandomStream(rand_draws(rng, 3)))
            assert states_identical(a, b)

    def test_backend_agreement_measurement_free(self):
        rng = random.Random(179)
        approx = ApproxBackend(F(1, 10**12))
        for _ in range(25):
            nqubits = rng.randint(1, 3)
            ops = [op for op in rand_circuit_ops(rng, nqubits, 8) if op[0] != "M"]
            circuit = ops_to_circuit(ops, nqubits)
            # rational-only initial coefficients, shared by both backends
            dim = 1 << nqubits
            rationals = [
                (rand_fraction(rng), rand_fraction(rng)) for _ in range(dim)
            ]
            if not any(re or im for re, im in rationals):
                rationals[0] = (F(1), F(0))
            exact_state = sort_and_merge(
                [
                    Term(CScalar(QExt(re), QExt(im)), index_to_bits(i, nqubits))
                    for i, (re, im) in enumerate(rationals)
                ],
                nqubits,
            )
            approx_state = sort_and_merge(
                [
                    Term(CScalar(re, im), index_to_bits(i, nqubits))
                    for i, (re, im) in enumerate(rationals)
                ],
                nqubits,
                approx,
            )
            exact_out = run_circuit(circuit, exact_state, RandomStream([]))
            approx_out = run_circuit(circuit, approx_state, RandomStream([]))
            rendered = state_to_complex(exact_out)
            for amp, term in zip(rendered, approx_out.terms):
                diff = max(
                    abs(amp.real - scalar_to_float(term.coeff.re)),
                    abs(amp.imag - scalar_to_float(term.coeff.im)),
                )
                assert diff <= 1e-6


def walk(text, state):
    return list(branches(parse_circuit(text, state.nqubits), state))


class TestBranches:
    def test_bell_measurement_splits_in_halves(self):
        (zero, p0, s0), (one, p1, s1) = walk("H 0\nCN 0 1\nM 0", zero_qstate(2))
        assert (zero, one) == ((0,), (1,))
        assert p0 == p1 == QExt(F(1, 2))
        assert s0 == zero_qstate(2)
        assert s1 == sort_and_merge([Term(CScalar(QExt(1)), (True, True))], 2)

    def test_probability_is_the_exact_norm_share(self):
        payload = make_qubit(CScalar(QExt(F(3, 5))), CScalar(QExt(0), QExt(F(4, 5))))
        got = [(o, p) for o, p, _ in walk("M 0", payload)]
        assert got == [((0,), QExt(F(9, 25))), ((1,), QExt(F(16, 25)))]

    def test_circuit_without_m_is_one_branch(self):
        rng = random.Random(211)
        state = rand_state(rng, 3)
        circuit = ops_to_circuit(rand_circuit_ops(rng, 3, 12), 3)
        circuit = Circuit(tuple(g for g in circuit.gates if g.kind != "M"), 3)
        [(outcomes, p, out)] = branches(circuit, state)
        assert (outcomes, p) == ((), QExt(1))
        assert states_identical(out, run_circuit(circuit, state, RandomStream([])))

    def test_zero_weight_branches_are_never_entered(self):
        # on zero:1, run_circuit with draw 1 empties the state and fails
        assert [(o, p) for o, p, _ in walk("M 0", zero_qstate(1))] == [((0,), QExt(1))]
        assert [(o, p) for o, p, _ in walk("X 0\nM 0", zero_qstate(1))] == [((1,), QExt(1))]

    def test_depth_first_outcome_zero_first(self):
        got = [o for o, _, _ in walk("H 0\nH 1\nM 0\nM 1", zero_qstate(2))]
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_shared_prefix_and_one_split_per_m(self, monkeypatch):
        calls = {"H": 0, "split": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(qnet.gates, "gate_H", counted("H", qnet.gates.gate_H))
        monkeypatch.setattr(qnet.gates, "measure_split", counted("split", qnet.gates.measure_split))
        monkeypatch.setattr(qnet.gates, "gate_M", None)  # the walk draws nothing
        walker = branches(parse_circuit("H 0\nM 0\nH 1\nM 1", 2), zero_qstate(2))
        next(walker)  # lazy: branch (0, 0) needs one split per M on its path
        assert calls == {"H": 2, "split": 2}
        assert len(list(walker)) == 3
        # H 0 and the split of M 0 once, shared by both outcomes; H 1 and
        # the split of M 1 once per outcome of M 0
        assert calls == {"H": 3, "split": 3}

    def test_errors_name_the_step(self, monkeypatch):
        with pytest.raises(ValueError, match="state has 3 qubits"):
            next(branches(parse_circuit("M 0", 2), zero_qstate(3)))

        def broken(state, n):
            raise ValueError("broken")

        monkeypatch.setattr(qnet.gates, "gate_X", broken)
        with pytest.raises(ValueError, match="^step 3 \\(X 1\\): broken$"):
            list(walk("H 0\nM 0\nX 1", zero_qstate(2)))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32), nqubits=st.integers(1, 6), ngates=st.integers(0, 14))
    def test_stabilizer_branches_have_dyadic_probabilities(self, seed, nqubits, ngates):
        # X, Z, H, I, CN and M from zero:n keep a stabilizer state: every M
        # has p0 in {0, 1/2, 1}, and every amplitude is a phase over
        # sqrt(2)^k, whose norm is in the field, so nothing is deferred
        ops = rand_circuit_ops(random.Random(seed), nqubits, ngates)
        circuit = ops_to_circuit(ops, nqubits)
        measured = count_measurements(circuit)
        total = QExt(0)
        for outcomes, p, state in branches(circuit, zero_qstate(nqubits)):
            assert len(outcomes) == measured
            assert p in {QExt(F(1, 2**j)) for j in range(measured + 1)}
            assert state.scale_sq == QExt(1)
            total += p
        assert total == QExt(1)
