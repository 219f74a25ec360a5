"""Reference model and output checks for the benchmark. Nothing here imports qnet.

Circuits are tuples such as ("H", 0) or ("CN", 0, 1); qubit 0 is the most
significant bit of a basis index. The semantics are the interpreter's:
normalize the initial state, apply each gate and normalize again, and let an
M gate keep |0> iff its draw r is strictly below p0, the |0>-share of the
squared norm.

qnet's printed output is parsed here with the benchmark's own grammar reader
and compared with values the benchmark computed itself, so a wrong answer
cannot pass by agreeing with another part of qnet. `simulate` follows
tests/oracle.py but also returns every step's state and the M outcomes,
which the trace and outcome checks need; the benchmark's tests check that the
two agree.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

SQRT2 = math.sqrt(2)

#: Tolerance for comparing printed amplitudes with the float reference.
FLOAT_TOL = 1e-9


class CheckFailed(Exception):
    """An output of qnet disagrees with the reference."""


def _mask(qubit: int, nqubits: int) -> int:
    return 1 << (nqubits - 1 - qubit)


def _normalized(vec: list[complex]) -> list[complex]:
    norm = math.sqrt(sum(abs(c) ** 2 for c in vec))
    if norm == 0:
        raise ValueError("zero vector")
    return [c / norm for c in vec]


def simulate(ops, initial, draws) -> tuple[list[list[complex]], list[int]]:
    """Run `ops` on the amplitude list `initial` in double precision.

    Returns (states, outcomes): states[0] is the normalized initial state,
    states[k] the state after gate k, and outcomes one 0/1 per M gate.
    """
    nqubits = len(initial).bit_length() - 1
    draws = iter(draws)
    vec = _normalized([complex(c) for c in initial])
    dim = len(vec)
    states, outcomes = [vec], []
    for op in ops:
        kind, m = op[0], _mask(op[1], nqubits)
        if kind == "X":
            vec = [vec[i ^ m] for i in range(dim)]
        elif kind == "Z":
            vec = [-c if i & m else c for i, c in enumerate(vec)]
        elif kind == "H":
            out = list(vec)
            for i in range(dim):
                if not i & m:
                    a, b = vec[i], vec[i | m]
                    out[i], out[i | m] = (a + b) / SQRT2, (a - b) / SQRT2
            vec = out
        elif kind == "CN":
            t = _mask(op[2], nqubits)
            vec = [vec[i ^ t] if i & m else vec[i] for i in range(dim)]
        elif kind == "M":
            r = next(draws)
            total = sum(abs(c) ** 2 for c in vec)
            p0 = sum(abs(c) ** 2 for i, c in enumerate(vec) if not i & m) / total
            outcome = 0 if r < p0 else 1
            outcomes.append(outcome)
            vec = [c if bool(i & m) == bool(outcome) else 0j for i, c in enumerate(vec)]
        elif kind != "I":
            raise ValueError(f"unknown gate {kind!r}")
        vec = _normalized(vec)
        states.append(vec)
    return states, outcomes


def sign_walk(ops, nqubits: int) -> list[int]:
    """Amplitude signs after an H on every qubit of |0...0> and then `ops`.

    The H wall makes every amplitude +2^(-n/2); X, Z and CN only permute
    and negate them, so the signs are the whole answer.
    """
    signs = [1] * (1 << nqubits)
    for op in ops:
        kind, m = op[0], _mask(op[1], nqubits)
        if kind == "X":
            signs = [signs[i ^ m] for i in range(len(signs))]
        elif kind == "Z":
            signs = [-s if i & m else s for i, s in enumerate(signs)]
        elif kind == "CN":
            t = _mask(op[2], nqubits)
            signs = [signs[i ^ t] if i & m else signs[i] for i in range(len(signs))]
        else:
            raise ValueError(f"sign walk takes X, Z and CN, not {kind}")
    return signs


def uniform_amplitude(nqubits: int) -> tuple[Fraction, Fraction]:
    """2^(-n/2) as (a, b) with value a + b*sqrt(2)."""
    if nqubits % 2 == 0:
        return Fraction(1, 2 ** (nqubits // 2)), Fraction(0)
    return Fraction(0), Fraction(1, 2 ** ((nqubits + 1) // 2))


# --- reading printed states ---------------------------------------------------
#
# An exact real prints as `rat`, `rat*s2`, `rat+rat*s2` or `rat-rat*s2`; a
# decimal real as `-?digits.digits`. A term line is `(re, im) | bits`.

_RAT = r"-?\d+(?:/\d+)?"
_EXACT_RE = re.compile(rf"^(?:(?P<a>{_RAT})(?P<sep>[+-]))?(?P<b>{_RAT})\*s2$")
_DECIMAL_RE = re.compile(r"^-?\d+\.\d+$")
_TERM_RE = re.compile(r"^\((?P<re>[^,()]+), (?P<im>[^,()]+)\) \| (?P<bits>[01]+)$")

Real = tuple[Fraction, Fraction]  # a + b*sqrt(2)
ZERO: Real = (Fraction(0), Fraction(0))


def parse_real(text: str, decimal: bool) -> Real:
    if decimal:
        if not _DECIMAL_RE.match(text):
            raise CheckFailed(f"bad decimal {text!r}")
        return Fraction(text), Fraction(0)
    if re.fullmatch(_RAT, text):
        return Fraction(text), Fraction(0)
    m = _EXACT_RE.match(text)
    if m is None:
        raise CheckFailed(f"bad exact scalar {text!r}")
    a = Fraction(m["a"]) if m["a"] else Fraction(0)
    b = Fraction(m["b"])
    return a, -b if m["sep"] == "-" else b


def real_value(x: Real) -> float:
    return float(x[0]) + float(x[1]) * SQRT2


def parse_terms(lines, nqubits: int, sparse: bool, decimal: bool) -> dict:
    """Read term lines into {basis index: (re, im)}.

    Dense output must list all 2^n basis vectors in ascending order; sparse
    output must be ascending and, when exact, hold no zero term.
    """
    terms = {}
    last = -1
    for line in lines:
        m = _TERM_RE.match(line)
        if m is None or len(m["bits"]) != nqubits:
            raise CheckFailed(f"bad term line {line!r}")
        index = int(m["bits"], 2)
        if index <= last:
            raise CheckFailed(f"terms out of order at {line!r}")
        last = index
        value = (parse_real(m["re"], decimal), parse_real(m["im"], decimal))
        if sparse and not decimal and value == (ZERO, ZERO):
            raise CheckFailed(f"sparse output lists a zero term {line!r}")
        terms[index] = value
    if not sparse and len(terms) != 1 << nqubits:
        raise CheckFailed(f"dense output has {len(terms)} terms, expected {1 << nqubits}")
    return terms


def check_exact_state(lines, nqubits: int, expected: dict) -> None:
    """Dense output whose every amplitude equals `expected` ({index: (re, im)}; others zero) exactly."""
    got = parse_terms(lines, nqubits, sparse=False, decimal=False)
    for index in range(1 << nqubits):
        want = expected.get(index, (ZERO, ZERO))
        have = got.get(index, (ZERO, ZERO))
        if have != want:
            raise CheckFailed(f"amplitude {index:0{nqubits}b} is {have}, expected {want}")


def check_close_state(lines, nqubits: int, vec, tol: float, sparse: bool, decimal: bool) -> None:
    """Every amplitude lies within `tol` of the float reference `vec`."""
    got = parse_terms(lines, nqubits, sparse, decimal)
    for index, want in enumerate(vec):
        re_part, im_part = got.get(index, (ZERO, ZERO))
        have = complex(real_value(re_part), real_value(im_part))
        if abs(have.real - want.real) > tol or abs(have.imag - want.imag) > tol:
            raise CheckFailed(
                f"amplitude {index:0{nqubits}b} is {have}, reference {want} (tol {tol:g})"
            )


def printed_outcome(terms: dict, qubit: int, nqubits: int) -> int:
    """The value of `qubit` on the largest printed amplitude."""
    index = max(
        terms, key=lambda i: abs(real_value(terms[i][0])) + abs(real_value(terms[i][1]))
    )
    return int(bool(index & _mask(qubit, nqubits)))


def gate_text(op) -> str:
    return " ".join(map(str, op))


def check_trace(text: str, nqubits: int, ops, draws, ref, tol, sparse, decimal) -> None:
    """A `qnet trace` dump: one labelled block per step, each state close to
    the reference, and every M outcome equal to the reference's."""
    states, outcomes = ref
    blocks, current = [], None
    for line in text.splitlines():
        if line.startswith("# "):
            current = (line, [])
            blocks.append(current)
        elif line:
            if current is None:
                raise CheckFailed(f"term before the first label: {line!r}")
            current[1].append(line)
    if len(blocks) != len(ops) + 1:
        raise CheckFailed(f"trace has {len(blocks)} blocks, expected {len(ops) + 1}")
    draws = iter(draws)
    outcome_iter = iter(outcomes)
    for step, (label, lines) in enumerate(blocks):
        if step == 0:
            want_label = "# initial"
        else:
            op = ops[step - 1]
            want_label = f"# step {step}: {gate_text(op)}"
            if op[0] == "M":
                want_label += f" r={next(draws)}"
        if label != want_label:
            raise CheckFailed(f"label {label!r}, expected {want_label!r}")
        if step and ops[step - 1][0] == "M":
            want = next(outcome_iter)
            terms = parse_terms(lines, nqubits, sparse, decimal)
            have = printed_outcome(terms, ops[step - 1][1], nqubits)
            if have != want:
                raise CheckFailed(f"step {step}: M outcome {have}, reference {want}")
        check_close_state(lines, nqubits, states[step], tol, sparse, decimal)


def check_teleport(text: str, payload, m0: int, m1: int, exact: bool) -> None:
    """`qnet teleport`: the final state is |m0 m1> (x) payload and the verdict PASS.

    `payload` is (alpha, beta), each (re, im) of exact reals. The exact
    backend must reproduce it exactly, the approx backend within FLOAT_TOL.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "# final state" or lines[-1] != "PASS":
        raise CheckFailed("teleport output lacks its header or PASS verdict")
    state_lines = [line for line in lines[1:] if not line.startswith("#")][:-1]
    base = (m0 << 2) | (m1 << 1)
    expected = {base: payload[0], base | 1: payload[1]}
    if exact:
        check_exact_state(state_lines, 3, expected)
        return
    vec = [0j] * 8
    for index, (re_part, im_part) in expected.items():
        vec[index] = complex(real_value(re_part), real_value(im_part))
    check_close_state(state_lines, 3, vec, FLOAT_TOL, sparse=False, decimal=False)


def check_verify(text: str) -> None:
    """`qnet verify-teleport`: every case line and the verdict read PASS."""
    lines = text.splitlines()
    cases = [line for line in lines if line.startswith("case ")]
    if not cases or not lines or lines[-1] != "PASS":
        raise CheckFailed("verify-teleport did not print PASS")
    failing = [line for line in cases if not line.endswith(": PASS")]
    if failing:
        raise CheckFailed(f"verify-teleport case failed: {failing[0]!r}")
