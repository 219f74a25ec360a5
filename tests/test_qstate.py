import random
from fractions import Fraction as F

import pytest

from qnet import (
    CScalar,
    QExt,
    Term,
    format_state,
    get_deterministic_qubit,
    make_qubit,
    narrow_to_qubit,
    norm_sq,
    normalize,
    parse_state,
    sort_and_merge,
    tensor_product,
    zero_qstate,
)
from qnet.errors import (
    EntangledError,
    NotDeterministicError,
    NotRepresentableError,
    ParseError,
)
from qnet.qstate import (
    MAX_QUBITS,
    QState,
    bits_to_index,
    index_to_bits,
    physical_amplitudes,
    qubit_mask,
)
from qnet.scalar import ApproxBackend

from support import (
    rand_cscalar,
    rand_state,
    scalar_to_float,
    state_to_complex,
    states_identical,
)

INV_SQRT2 = QExt(0, F(1, 2))
ZERO = CScalar(QExt(0), QExt(0))
ONE = CScalar(QExt(1), QExt(0))


def bell_state():
    return sort_and_merge(
        [
            Term(CScalar(INV_SQRT2), (False, False)),
            Term(CScalar(INV_SQRT2), (True, True)),
        ],
        2,
    )


class TestIndexing:
    def test_qubit_zero_is_most_significant(self):
        assert index_to_bits(4, 3) == (True, False, False)
        assert bits_to_index((False, True)) == 1
        assert bits_to_index((True, False)) == 2


class TestSortAndMerge:
    def test_three_representations_of_the_same_state(self):
        half = CScalar(INV_SQRT2)
        two_terms = [Term(half, (False, True)), Term(half, (True, False))]
        four_terms = [
            Term(ZERO, (False, False)),
            Term(half, (False, True)),
            Term(half, (True, False)),
            Term(ZERO, (True, True)),
        ]
        five_terms = [
            Term(ZERO, (False, False)),
            Term(CScalar(QExt(0, F(1, 6))), (False, True)),
            Term(half, (True, False)),
            Term(CScalar(QExt(0, F(1, 3))), (False, True)),
            Term(ZERO, (True, True)),
        ]
        a = sort_and_merge(two_terms, 2)
        b = sort_and_merge(four_terms, 2)
        c = sort_and_merge(five_terms, 2)
        assert a == b == c

    def test_zero_padding(self):
        state = sort_and_merge([Term(ONE, (False, False))], 2)
        assert state.coeff(0) == ONE
        assert all(not state.coeff(i) for i in (1, 2, 3))
        assert state.scale_sq == QExt(1)

    def test_cancellation_rejected_downstream(self):
        state = sort_and_merge(
            [Term(ONE, (True,)), Term(-ONE, (True,))], 1
        )
        assert not any(state.coeffs())
        with pytest.raises(ValueError):
            normalize(state)

    def test_mismatched_bits_length(self):
        with pytest.raises(ParseError):
            sort_and_merge([Term(ONE, (False,))], 2)

    def test_idempotent(self):
        rng = random.Random(71)
        for _ in range(50):
            state = rand_state(rng, rng.randint(1, 3))
            again = sort_and_merge(state.terms, state.nqubits)
            assert again == state

    def test_representation_invariance(self):
        rng = random.Random(73)
        for _ in range(50):
            state = rand_state(rng, 2)
            terms = [t for t in state.terms]
            rng.shuffle(terms)
            # split one coefficient into two pieces and pad with zeros
            victim = terms.pop()
            third = CScalar(QExt(F(1, 3)), QExt(0))
            rest = CScalar(QExt(F(2, 3)), QExt(0))
            terms += [
                Term(victim.coeff * third, victim.bits),
                Term(ZERO, (False, False)),
                Term(victim.coeff * rest, victim.bits),
            ]
            assert sort_and_merge(terms, 2) == state


class TestNorms:
    def test_bell_norm(self):
        assert norm_sq(bell_state()) == QExt(1)

    def test_complex_norm(self):
        state = make_qubit(
            CScalar(QExt(F(3, 5))), CScalar(QExt(0), QExt(F(4, 5)))
        )
        assert norm_sq(state) == QExt(1)

    def test_unnormalized_norm(self):
        state = make_qubit(ONE, ONE)
        assert norm_sq(state) == QExt(2)


class TestNormalize:
    def test_in_field_root(self):
        state = normalize(make_qubit(ONE, ONE))
        assert state.coeff(0) == CScalar(INV_SQRT2)
        assert state.coeff(1) == CScalar(INV_SQRT2)
        assert state.scale_sq == QExt(1)

    def test_already_normalized_unchanged(self):
        bell = bell_state()
        assert normalize(bell) == bell

    def test_deferred_scale(self):
        state = sort_and_merge(
            [Term(ONE, (False, False)), Term(ONE, (False, True)), Term(ONE, (True, False))],
            2,
        )
        deferred = normalize(state)
        assert deferred.scale_sq == QExt(3)
        assert deferred.coeff(0) == ONE

    def test_zero_state_rejected(self):
        state = sort_and_merge([Term(ZERO, (False,))], 1)
        with pytest.raises(ValueError):
            normalize(state)

    def test_idempotent_on_result(self):
        rng = random.Random(79)
        for _ in range(40):
            state = normalize(rand_state(rng, 2))
            assert states_identical(normalize(state), state)

    def test_approx_backend_divides_out(self):
        backend = ApproxBackend(F(1, 10**12))
        one = CScalar(backend.one, backend.zero)
        state = normalize(make_qubit(one, one, backend))
        assert state.scale_sq == F(1)
        assert abs(float(state.coeff(0).re) - 0.5**0.5) < 1e-11


class TestTensorProduct:
    def test_payload_occupies_lower_indices(self):
        alpha = CScalar(QExt(F(3, 5)))
        beta = CScalar(QExt(F(4, 5)))
        state = tensor_product(make_qubit(alpha, beta), zero_qstate(2))
        assert state.nqubits == 3
        assert state.coeff(0) == alpha  # |000>
        assert state.coeff(4) == beta  # |100>
        assert sum(1 for c in state.coeffs() if c) == 2

    def test_zero_tensor_zero(self):
        state = tensor_product(zero_qstate(1), zero_qstate(1))
        assert state == zero_qstate(2)

    def test_norm_multiplicative(self):
        rng = random.Random(83)
        for _ in range(50):
            a = rand_state(rng, rng.randint(1, 2))
            b = rand_state(rng, rng.randint(1, 2))
            assert norm_sq(tensor_product(a, b)) == norm_sq(a) * norm_sq(b)

    def test_scale_multiplies(self):
        deferred = normalize(
            sort_and_merge(
                [Term(ONE, (False,)), Term(CScalar(QExt(1), QExt(1)), (True,))], 1
            )
        )
        assert deferred.scale_sq == QExt(3)
        combined = tensor_product(deferred, deferred)
        assert combined.scale_sq == QExt(9)


class TestConstructors:
    def test_make_qubit_basis(self):
        assert make_qubit(ONE, CScalar(QExt(0))) == zero_qstate(1)

    def test_make_qubit_hadamard_state(self):
        state = make_qubit(CScalar(INV_SQRT2), CScalar(INV_SQRT2))
        assert norm_sq(state) == QExt(1)

    def test_make_qubit_rejects_zero(self):
        with pytest.raises(ValueError):
            make_qubit(ZERO, ZERO)

    def test_zero_qstate_sizes(self):
        assert zero_qstate(1).coeff(0) == ONE
        assert zero_qstate(2).nqubits == 2
        three = zero_qstate(3)
        assert len(three.terms) == 8
        assert sum(1 for c in three.coeffs() if c) == 1

    def test_zero_qstate_rejects_bad_count(self):
        with pytest.raises(ValueError):
            zero_qstate(0)


class TestGetDeterministicQubit:
    def test_deterministic_lead_qubit(self):
        state = sort_and_merge(
            [
                Term(CScalar(QExt(F(3, 5))), (False, False, False)),
                Term(CScalar(QExt(F(4, 5))), (False, False, True)),
            ],
            3,
        )
        assert get_deterministic_qubit(state, 0) is False
        assert get_deterministic_qubit(state, 1) is False
        with pytest.raises(NotDeterministicError):
            get_deterministic_qubit(state, 2)

    def test_collapsed_pair(self):
        state = sort_and_merge([Term(ONE, (True, False))], 2)
        assert get_deterministic_qubit(state, 0) is True
        assert get_deterministic_qubit(state, 1) is False

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            get_deterministic_qubit(zero_qstate(2), 2)

    def test_anchored_zero_qubit(self):
        rng = random.Random(89)
        for _ in range(25):
            anything = rand_state(rng, 2)
            state = tensor_product(make_qubit(ONE, CScalar(QExt(0))), anything)
            assert get_deterministic_qubit(state, 0) is False


class TestNarrowToQubit:
    def test_recovers_tensored_qubit(self):
        alpha = CScalar(QExt(F(3, 5)))
        beta = CScalar(QExt(0), QExt(F(4, 5)))
        qubit = make_qubit(alpha, beta)
        state = tensor_product(qubit, zero_qstate(2))
        assert narrow_to_qubit(state, 0) == qubit

    def test_bell_state_is_entangled(self):
        with pytest.raises(EntangledError):
            narrow_to_qubit(bell_state(), 0)
        with pytest.raises(EntangledError):
            narrow_to_qubit(bell_state(), 1)

    def test_inherits_anchor_phase(self):
        i_alpha = CScalar(QExt(0), QExt(F(3, 5)))
        i_beta = CScalar(QExt(0), QExt(F(4, 5)))
        state = tensor_product(make_qubit(i_alpha, i_beta), zero_qstate(1))
        assert narrow_to_qubit(state, 0) == make_qubit(i_alpha, i_beta)

    def test_scaling_outside_field(self):
        # row squared norm is 3; sqrt(3) has no Q[sqrt(2)] representation
        state = tensor_product(
            make_qubit(ONE, CScalar(QExt(1), QExt(1))), zero_qstate(1)
        )
        with pytest.raises(NotRepresentableError):
            narrow_to_qubit(state, 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            narrow_to_qubit(zero_qstate(2), 5)

    def test_minor_identity_on_separable_states(self):
        rng = random.Random(97)
        for _ in range(40):
            one_qubit = rand_state(rng, 1)
            rest = rand_state(rng, 2)
            state = tensor_product(one_qubit, rest)
            # cross-multiplication form of the vanishing 2x2 minors
            cells = [
                [state.coeff(v << 2 | x) for v in (0, 1)] for x in range(4)
            ]
            anchor = next(row for row in cells if row[0] or row[1])
            for row in cells:
                assert row[0] * anchor[1] == row[1] * anchor[0]
            try:
                narrow_to_qubit(state, 0)
            except NotRepresentableError:
                pass  # separable, but the row scale's root leaves the field

    def test_normalizes_its_result(self):
        doubled = make_qubit(
            CScalar(QExt(F(6, 5))), CScalar(QExt(0), QExt(F(8, 5)))
        )
        state = tensor_product(doubled, zero_qstate(1))
        narrowed = narrow_to_qubit(state, 0)
        assert norm_sq(narrowed) == QExt(1)
        assert narrowed == make_qubit(
            CScalar(QExt(F(3, 5))), CScalar(QExt(0), QExt(F(4, 5)))
        )


class TestEquality:
    def test_deferred_comparison_signals(self):
        deferred = normalize(
            sort_and_merge(
                [Term(ONE, (False,)), Term(CScalar(QExt(1), QExt(1)), (True,))], 1
            )
        )
        with pytest.raises(NotRepresentableError):
            deferred == deferred

    def test_different_sizes_unequal(self):
        assert zero_qstate(1) != zero_qstate(2)

    def test_different_backends_unequal(self):
        backend = ApproxBackend(F(1, 10**12))
        assert zero_qstate(1) != zero_qstate(1, backend)


class TestStateFiles:
    def test_round_trip(self):
        rng = random.Random(101)
        for _ in range(25):
            state = rand_state(rng, 2)
            assert parse_state("\n".join(format_state(state))) == state

    def test_accepts_non_canonical_input(self):
        text = """
        # a split, shuffled bell state
        (1/2*s2, 0) | 11
        (1/4*s2, 0) | 00
        (0, 0) | 01
        (1/4*s2, 0) | 00
        """
        assert parse_state(text) == bell_state()

    def test_inline_comment(self):
        state = parse_state("(1, 0) | 0  # payload\n")
        assert state == zero_qstate(1)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("(1, 0) 0", "cplx | bitstring"),
            ("(1, 0) | 02", "bitstring"),
            ("(1, 0) | 0\n(1, 0) | 00", "length"),
            ("(1 0) | 0", "literal"),
            ("", "no terms"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_state(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_state("(1, 0) | 0\n(oops, 0) | 1\n")
        assert err.value.line == 2

    def test_sparse_omits_zeros(self):
        lines = format_state(bell_state(), sparse=True)
        assert lines == ["(1/2*s2, 0) | 00", "(1/2*s2, 0) | 11"]
        full = format_state(bell_state())
        assert len(full) == 4

    def test_deferred_rendering_fails(self):
        deferred = normalize(
            sort_and_merge(
                [Term(ONE, (False,)), Term(CScalar(QExt(1), QExt(1)), (True,))], 1
            )
        )
        with pytest.raises(NotRepresentableError):
            format_state(deferred)


class TestPhysicalAmplitudes:
    def test_bell(self):
        amps = physical_amplitudes(bell_state(), F(1, 10**8))
        assert abs(float(amps[0][0]) - 0.5**0.5) < 1e-7
        assert amps[1] == (0, 0)

    def test_deferred_scale_divided_out(self):
        deferred = normalize(
            sort_and_merge(
                [Term(ONE, (False,)), Term(CScalar(QExt(1), QExt(1)), (True,))], 1
            )
        )
        amps = physical_amplitudes(deferred, F(1, 10**8))
        assert abs(float(amps[0][0]) - 1 / 3**0.5) < 1e-7
        rendered = state_to_complex(deferred)
        assert abs(rendered[0] - complex(float(amps[0][0]), 0)) < 1e-7


class TestCoefficientVector:
    def test_amps_are_in_basis_index_order(self):
        state = parse_state("(2, 0) | 10\n(1, 0) | 01\n")
        assert state.amps == (ZERO, ONE, CScalar(QExt(2)), ZERO)
        assert state.coeffs() == list(state.amps)

    def test_terms_view_round_trips(self):
        rng = random.Random(41)
        for nqubits in (1, 2, 3, 4):
            state = rand_state(rng, nqubits)
            terms = state.terms
            assert [t.bits for t in terms] == [
                index_to_bits(i, nqubits) for i in range(1 << nqubits)
            ]
            assert [t.coeff for t in terms] == list(state.amps)
            assert sort_and_merge(terms, nqubits) == state

    def test_qubit_mask_is_the_index_to_bits_rule(self):
        for nqubits in range(1, 5):
            for index in range(1 << nqubits):
                bits = index_to_bits(index, nqubits)
                assert bits_to_index(bits) == index
                for q in range(nqubits):
                    assert bool(index & qubit_mask(nqubits, q)) == bits[q]

    def test_qubit_mask_validates_the_index(self):
        for bad in (-1, 3, 40):
            with pytest.raises(IndexError):
                qubit_mask(3, bad)

    def test_vector_length_must_match_width(self):
        with pytest.raises(ValueError):
            QState(2, (ONE, ZERO, ZERO), QExt(1))

    def test_width_is_refused_before_allocating(self):
        for nqubits in (MAX_QUBITS + 1, 40, 64):
            with pytest.raises(ValueError):
                zero_qstate(nqubits)
        wide = zero_qstate(MAX_QUBITS // 2 + 1)
        with pytest.raises(ValueError):
            tensor_product(wide, wide)
