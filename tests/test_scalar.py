import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qnet import CScalar, QExt, approx_of_qext, iter_sqrt
from qnet.errors import ParseError
from qnet.scalar import (
    ApproxBackend,
    EXACT,
    ExactBackend,
    approx_of_parts,
    format_cscalar,
    format_fixed,
    format_qext,
    int_parts,
    parse_cscalar,
    parse_qext,
    parse_rational,
    to_backend,
)

from support import SQRT2_HP, rand_cscalar, rand_fraction, rand_qext
from test_integer_scalar import denominators, numerators, parts, qexts, rationals


class TestQExtArithmetic:
    def test_conjugate_product(self):
        assert QExt(1, 1) * QExt(1, -1) == QExt(-1)

    def test_divide_one_by_sqrt2(self):
        assert QExt(1) / QExt(0, 1) == QExt(0, F(1, 2))

    def test_componentwise_add(self):
        assert QExt(F(3, 2)) + QExt(0, 1) == QExt(F(3, 2), 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QExt(1) / QExt(0)

    def test_field_axioms_sampled(self):
        rng = random.Random(11)
        one = QExt(1)
        for _ in range(200):
            x, y, z = rand_qext(rng), rand_qext(rng), rand_qext(rng)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * (one / x) == one

    def test_mixed_operands_coerce(self):
        assert 1 + QExt(0, 1) == QExt(1, 1)
        assert F(1, 2) * QExt(2) == QExt(1)
        assert 1 / QExt(0, 1) == QExt(0, F(1, 2))


class TestQExtSign:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (QExt(3, -2), 1),
            (QExt(1, -1), -1),
            (QExt(0, 0), 0),
            (QExt(-3, 2), -1),
            (QExt(-1, 1), 1),
            (QExt(0, -5), -1),
            (QExt(F(7, 2), 0), 1),
        ],
    )
    def test_examples(self, value, expected):
        assert value.sign() == expected

    def test_agrees_with_interval_arithmetic(self):
        rng = random.Random(23)
        r2 = iter_sqrt(2, F(1, 10**12))
        checked = 0
        for _ in range(1000):
            x = rand_qext(rng)
            estimate = x.a + x.b * r2
            if abs(estimate) <= F(1, 10**6):
                continue
            # |b| <= 6 here, so the interval around the estimate is far
            # narrower than the magnitude cutoff
            assert x.sign() == (1 if estimate > 0 else -1)
            checked += 1
        assert checked > 800


class TestQExtSqrt:
    def test_sqrt_of_half(self):
        assert QExt(F(1, 2)).sqrt() == QExt(0, F(1, 2))

    def test_sqrt_with_sqrt2_part(self):
        x = QExt(F(3, 2), 1)
        root = x.sqrt()
        assert root == QExt(1, F(1, 2))
        assert root * root == x

    def test_sqrt_of_three_not_representable(self):
        assert QExt(3).sqrt() is None

    def test_sqrt_of_two(self):
        assert QExt(2).sqrt() == QExt(0, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QExt(-1).sqrt()

    def test_sqrt_squares_back(self):
        rng = random.Random(37)
        successes = 0
        for _ in range(1000):
            x = rand_qext(rng)
            if x.sign() < 0:
                x = -x
            root = x.sqrt()
            if root is not None:
                assert root * root == x
                assert root.sign() >= 0
                successes += 1
        assert successes > 0

    def test_sqrt_of_square_always_succeeds(self):
        rng = random.Random(41)
        for _ in range(1000):
            y = rand_qext(rng)
            if y.sign() < 0:
                y = -y
            root = (y * y).sqrt()
            assert root == y

    def test_rational_square_always_succeeds(self):
        rng = random.Random(43)
        for _ in range(200):
            q = abs(rand_fraction(rng, max_num=40, max_den=40))
            assert QExt(q * q).sqrt() == QExt(q)


class TestCScalar:
    def test_norm_sq_three_four_five(self):
        z = CScalar(QExt(F(3, 5)), QExt(F(4, 5)))
        assert z.norm_sq() == QExt(1)

    def test_conjugate(self):
        assert CScalar(QExt(0), QExt(1)).conjugate() == CScalar(QExt(0), QExt(-1))

    def test_inv_sqrt2_squared(self):
        h = CScalar(QExt(0, F(1, 2)), QExt(0))
        assert h * h == CScalar(QExt(F(1, 2)), QExt(0))

    def test_norm_multiplicative(self):
        rng = random.Random(47)
        for _ in range(200):
            z, w = rand_cscalar(rng), rand_cscalar(rng)
            assert (z * w).norm_sq() == z.norm_sq() * w.norm_sq()

    def test_norm_is_z_times_conjugate(self):
        rng = random.Random(53)
        for _ in range(100):
            z = rand_cscalar(rng)
            prod = z * z.conjugate()
            assert prod.re == z.norm_sq()
            assert not prod.im


class TestIterSqrt:
    def test_exact_square(self):
        for e in (F(1, 2), F(1, 100), F(1, 10**6)):
            r = iter_sqrt(4, e)
            assert abs(r - 2) <= e

    def test_zero(self):
        assert iter_sqrt(0, F(1, 100)) <= F(1, 100)

    def test_hand_run_bisection_of_two(self):
        # [0,2] -> [1,2] -> [1,3/2] -> [5/4,3/2]; midpoint 11/8
        r = iter_sqrt(2, F(1, 4))
        assert r == F(11, 8)
        assert (r - F(1, 4)) ** 2 <= 2 <= (r + F(1, 4)) ** 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iter_sqrt(-1, F(1, 10))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            iter_sqrt(2, 0)

    def test_contract_on_samples(self):
        rng = random.Random(59)
        for _ in range(300):
            x = abs(rand_fraction(rng, max_num=50, max_den=20, signed=False))
            e = F(1, rng.randint(2, 10**6))
            r = iter_sqrt(x, e)
            # |r - sqrt(x)| <= e, checked in pure rational arithmetic
            assert x <= (r + e) ** 2
            if r >= e:
                assert (r - e) ** 2 <= x


class TestApproxOfQExt:
    def test_rational_passthrough(self):
        assert approx_of_qext(QExt(1), F(1, 10**9)) == 1

    def test_sqrt2_accuracy(self):
        r = approx_of_qext(QExt(0, 1), F(1, 100))
        assert abs(r - SQRT2_HP) <= F(1, 100) + F(1, 10**20)

    def test_half_sqrt2_accuracy(self):
        r = approx_of_qext(QExt(0, F(1, 2)), F(1, 1000))
        assert abs(r - SQRT2_HP / 2) <= F(1, 1000) + F(1, 10**20)

    def test_large_coefficient_scales_tolerance(self):
        r = approx_of_qext(QExt(0, 1000), F(1, 1000))
        assert abs(r - 1000 * SQRT2_HP) <= F(1, 1000) + F(1, 10**20)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", QExt(F(1, 2))),
            ("3/2+1*s2", QExt(F(3, 2), 1)),
            ("-1/2*s2", QExt(0, F(-1, 2))),
            ("3/2-1/2*s2", QExt(F(3, 2), F(-1, 2))),
            ("1-s2", QExt(1, -1)),
            ("1+s2", QExt(1, 1)),
            ("0", QExt(0)),
            ("-3", QExt(-3)),
            ("2*s2", QExt(0, 2)),
            ("2/4+2/4*s2", QExt(F(1, 2), F(1, 2))),
            ("-3/4-5/6*s2", QExt(F(-3, 4), F(-5, 6))),
            ("0*s2", QExt(0)),
            ("1/2-1*s2", QExt(F(1, 2), -1)),
            ("-6/4", QExt(F(-3, 2))),
        ],
    )
    def test_parse(self, text, value):
        assert parse_qext(text) == value
        assert parts(parse_qext(text)) == parts(value)  # reduced triples

    def test_round_trip(self):
        rng = random.Random(61)
        for _ in range(200):
            x = rand_qext(rng)
            assert parse_qext(format_qext(x)) == x

    @pytest.mark.parametrize("text", ["s2", "1/0", "1//2", "", "x", "1 + s2", "(1)"])
    def test_bad_qext(self, text):
        with pytest.raises(ParseError):
            parse_qext(text)

    @pytest.mark.parametrize(
        "text", ["1/0+s2", "1/0-1*s2", "1+1/0*s2", "1/2-3/0*s2", "2/0*s2", "-0/0"]
    )
    def test_zero_denominator_in_either_part(self, text):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_qext(text)
        with pytest.raises(ParseError, match="zero denominator"):
            parse_cscalar(f"(0, {text})")

    def test_cplx(self):
        z = parse_cscalar("(1/2*s2, 0)")
        assert z == CScalar(QExt(0, F(1, 2)), QExt(0))
        assert format_cscalar(z) == "(1/2*s2, 0)"

    @pytest.mark.parametrize("text", ["(1,2,3)", "1,2", "(1)", "(1;2)"])
    def test_bad_cplx(self, text):
        with pytest.raises(ParseError):
            parse_cscalar(text)

    def test_rational(self):
        assert parse_rational("-4/6") == F(-2, 3)
        with pytest.raises(ParseError):
            parse_rational("4.5")


class TestFormatFixed:
    def test_inv_sqrt2_five_digits(self):
        r = approx_of_qext(QExt(0, F(1, 2)), F(1, 10**7))
        assert format_fixed(r, 5) == "0.70711"

    def test_negative_and_padding(self):
        assert format_fixed(F(-1, 8), 3) == "-0.125"
        assert format_fixed(F(1, 2), 4) == "0.5000"
        assert format_fixed(F(0), 2) == "0.00"


def public_members(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


FIELD_MEMBERS = {
    "name", "normalizes_after_unitaries", "zero", "one", "sqrt_two",
    "from_ints", "sign", "unit_for_norm",
}


class TestBackends:
    def test_exact_members_are_its_field(self):
        assert public_members(ExactBackend) == FIELD_MEMBERS

    def test_approx_members_are_its_field_plus_tolerances(self):
        assert public_members(ApproxBackend) == FIELD_MEMBERS | {"eps", "check_tol"}

    def test_exact_surface(self):
        assert QExt(3).sqrt() is None
        assert QExt(F(1, 2)).sqrt() == QExt(0, F(1, 2))
        assert EXACT.sign(QExt(1, -1)) == -1
        assert EXACT.sqrt_two == QExt(0, 1)
        assert (EXACT.zero, EXACT.one) == (QExt(0), QExt(1))
        assert EXACT.from_ints(2, 0, 3) == QExt(F(2, 3))
        assert int_parts(QExt(F(1, 2), -3)) == (1, -6, 2)
        assert EXACT.from_ints(1, -6, 2) == QExt(F(1, 2), -3)
        assert parts(EXACT.from_ints(4, -24, 8)) == parts(QExt(F(1, 2), -3))
        assert parts(EXACT.from_ints(4, 0, 8)) == parts(QExt(F(1, 2)))

    def test_approx_surface(self):
        backend = ApproxBackend(F(1, 10**9))
        assert backend.sign(F(-1, 3)) == -1
        assert backend.sign(F(0)) == 0
        assert abs(iter_sqrt(F(2), backend.eps) - SQRT2_HP) <= F(1, 10**9)
        assert backend.sqrt_two == iter_sqrt(F(2), backend.eps)
        assert (backend.zero, backend.one) == (0, 1)
        assert abs(backend.from_ints(1, 1, 1) - (1 + SQRT2_HP)) <= F(1, 10**9)
        assert int_parts(F(2, 3)) == (2, 0, 3)
        assert backend.from_ints(2, 0, 3) == F(2, 3)
        assert type(backend.from_ints(5, 0, 1)) is F
        assert backend.from_ints(1, 1, 1) == approx_of_qext(QExt(1, 1), backend.eps)

    @given(qexts)
    def test_exact_from_ints_inverts_int_parts(self, x):
        assert EXACT.from_ints(*int_parts(x)) == x
        assert parts(EXACT.from_ints(*int_parts(x))) == parts(x)

    @given(rationals, st.integers(1, 40))
    def test_approx_from_ints_inverts_int_parts(self, x, k):
        backend = ApproxBackend(F(1, 10**k))
        got = backend.from_ints(*int_parts(x))
        assert type(got) is F and got == x

    @given(numerators, numerators, denominators, st.integers(1, 40))
    def test_approx_from_ints_rounds_the_same_rationals(self, p, q, d, k):
        backend = ApproxBackend(F(1, 10**k))
        got = backend.from_ints(p, q, d)
        assert type(got) is F
        assert got == approx_of_parts(F(p, d), F(q, d), backend.eps)

    def test_to_backend_returns_same_backend_input_unchanged(self):
        exact = CScalar(QExt(1, 2), QExt(F(-1, 3)))
        approx = CScalar(F(1, 3), F(-2, 5))
        assert to_backend(exact, EXACT) is exact
        assert to_backend(approx, ApproxBackend()) is approx

    def test_to_backend_rounds_exact_parts_like_approx_of_qext(self):
        backend = ApproxBackend(F(1, 10**6))
        rng = random.Random(41)
        for _ in range(100):
            z = rand_cscalar(rng)
            got = to_backend(z, backend)
            assert type(got.re) is type(got.im) is F
            assert got.re == approx_of_qext(z.re, backend.eps)
            assert got.im == approx_of_qext(z.im, backend.eps)

    def test_to_backend_lifts_rational_parts_to_exact(self):
        got = to_backend(CScalar(F(2, 3), F(-1, 7)), EXACT)
        assert type(got.re) is type(got.im) is QExt
        assert got == CScalar(QExt(F(2, 3)), QExt(F(-1, 7)))

    def test_approx_requires_positive_eps(self):
        with pytest.raises(ValueError):
            ApproxBackend(0)

    @pytest.mark.parametrize("eps", [1, 1000])
    def test_approx_requires_eps_below_one(self, eps):
        # ApproxBackend(1000) would take sqrt(2) as 1 and pass every check
        with pytest.raises(ValueError, match="below 1"):
            ApproxBackend(eps)


class TestQExtHash:
    def test_rational_elements_hash_like_their_value(self):
        assert len({QExt(1), 1}) == 1
        assert len({QExt(F(1, 2)), F(1, 2)}) == 1
        rng = random.Random(31)
        for _ in range(200):
            q = rand_fraction(rng)
            assert QExt(q) == q
            assert hash(QExt(q)) == hash(q)

    def test_equal_elements_hash_equal(self):
        rng = random.Random(32)
        for _ in range(200):
            x = rand_qext(rng)
            assert hash(QExt(x.a, x.b)) == hash(x)
        assert len({QExt(1, 1), QExt(1, 1), QExt(1, -1)}) == 2
