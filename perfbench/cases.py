"""Seeded inputs for the benchmark's workloads, and how each case runs and is checked.

A case is one call into qnet: a `run_circuit` call, or one in-process
`qnet.cli.main(argv)` invocation (the process start of a real `qnet` command
is Python's cost, not qnet's, so it is left out). Every input comes from a
`random.Random` seeded with the workload name and `--seed`; the expected
answers come from `reference`, never from qnet.

Workloads:

- dense-unitary: exact backend, `run_circuit` on zero:8, an H on every qubit
  and then seeded X/Z/CN gates. Every gate touches 256 nonzero terms, so the
  time goes to the H gate's division by sqrt(2) and to `normalize`.
- approx-deep: approx backend, random X/Z/H/I/CN/M circuits of 300 gates on
  5 qubits with draws k/1009. The time goes to Fraction arithmetic and the
  `iter_sqrt` bisection inside every normalize; denominators grow to
  hundreds of bits.
- cli-mixed: `run` and `trace` of narrow exact circuits from non-canonical
  state files (some deferring normalization), `--emit exact|decimal`,
  `--sparse-output`, `--randoms-file`, and `teleport` / `verify-teleport` on
  both backends. Small per-gate cost, so the interpreter, parsing and
  rendering dominate.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import reference as ref
from reference import ZERO, Real

WORKLOADS = ("dense-unitary", "approx-deep", "cli-mixed")

GATE_KINDS = ("X", "Z", "H", "I", "CN", "M")


@dataclass(frozen=True)
class Sizes:
    """Shapes of one benchmark size; fixed in advance for every seed."""

    dense_qubits: int
    dense_tail: int  # X/Z/CN gates after the H wall
    dense_pool: int
    approx_qubits: int
    approx_gates: int
    approx_pool: int
    cli_widths: tuple[int, ...]
    cli_gates: int
    cli_rounds: int
    digest_cases: dict  # workload -> cases every run executes and hashes
    trace_cases: dict  # workload -> cases in one traced pass


FULL = Sizes(
    dense_qubits=8, dense_tail=8, dense_pool=12,
    approx_qubits=5, approx_gates=300, approx_pool=48,
    cli_widths=(3, 4, 5), cli_gates=40, cli_rounds=64,
    digest_cases={"dense-unitary": 3, "approx-deep": 4, "cli-mixed": 8},
    trace_cases={"dense-unitary": 3, "approx-deep": 4, "cli-mixed": 16},
)

SMOKE = Sizes(
    dense_qubits=4, dense_tail=4, dense_pool=2,
    approx_qubits=3, approx_gates=30, approx_pool=2,
    cli_widths=(2, 3), cli_gates=8, cli_rounds=1,
    digest_cases={"dense-unitary": 2, "approx-deep": 2, "cli-mixed": 8},
    trace_cases={"dense-unitary": 2, "approx-deep": 2, "cli-mixed": 8},
)


@dataclass
class Case:
    """One timed call into qnet plus the untimed work that checks it."""

    label: str
    run: Callable[[], Any]  # the timed call
    render: Callable[[Any], str]  # the output as text; raises CheckFailed on a failed call
    check: Callable[[str], None]  # raises CheckFailed
    gates: Callable[[str], int]  # gates the call applied, from its output
    outcomes: Callable[[], list[int]] | None = None  # reference M outcomes, for the traced run
    cli: bool = False


@dataclass
class Workload:
    pool: list[Case]  # the timed loop cycles through these
    digest_cases: int
    trace_cases: int


# --- generators ----------------------------------------------------------------


def random_ops(rng: random.Random, nqubits: int, ngates: int) -> list[tuple]:
    """Uniform X/Z/H/I/CN/M gates, as tests/support.py's rand_circuit_ops
    draws them. The benchmark keeps its own copy so that an edit to the test
    helpers cannot change its workloads; its tests check the two agree."""
    ops = []
    for _ in range(ngates):
        kind = rng.choice(GATE_KINDS)
        if kind == "CN":
            if nqubits < 2:
                kind = "X"
            else:
                c = rng.randrange(nqubits)
                t = rng.randrange(nqubits)
                while t == c:
                    t = rng.randrange(nqubits)
                ops.append(("CN", c, t))
                continue
        ops.append((kind, rng.randrange(nqubits)))
    return ops


def random_draws(rng: random.Random, count: int) -> list[Fraction]:
    """Draws k/1009 with 1 <= k <= 1008: the prime denominator keeps every
    draw off the thresholds that small rational inputs can reach."""
    return [Fraction(rng.randint(1, 1008), 1009) for _ in range(count)]


def dense_ops(rng: random.Random, nqubits: int, tail: int) -> tuple[list, list]:
    wall = [("H", q) for q in range(nqubits)]
    rest = []
    for _ in range(tail):
        kind = rng.choice(("X", "Z", "CN"))
        if kind == "CN":
            c, t = rng.sample(range(nqubits), 2)
            rest.append(("CN", c, t))
        else:
            rest.append((kind, rng.randrange(nqubits)))
    return wall, rest


def circuit_text(ops, nqubits: int, header: bool = True) -> str:
    lines = [f"qubits {nqubits}"] if header else []
    lines.append("# generated circuit")
    lines += [ref.gate_text(op) for op in ops]
    return "\n".join(lines) + "\n"


def once(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Compute a reference answer at its first check, not during set-up."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def count_m(ops) -> int:
    return sum(1 for op in ops if op[0] == "M")


# --- exact values a + b*sqrt(2) --------------------------------------------------


def fmt_real(x: Real) -> str:
    """A real in the state-file grammar."""
    a, b = x
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*s2"
    return f"{a}-{-b}*s2" if b < 0 else f"{a}+{b}*s2"


def fmt_complex(z: tuple[Real, Real]) -> str:
    return f"({fmt_real(z[0])}, {fmt_real(z[1])})"


def times_half_sqrt2(x: Real) -> Real:
    """x * sqrt(2)/2: (a + b*sqrt2) * sqrt2/2 = b + (a/2)*sqrt2."""
    return x[1], x[0] / 2


def complex_value(z: tuple[Real, Real]) -> complex:
    return complex(ref.real_value(z[0]), ref.real_value(z[1]))


def stabilizer_amplitudes(rng: random.Random, nqubits: int) -> dict:
    """A seeded stabilizer state times a rational scale and a phase in {±1, ±i}.

    Amplitudes are tracked as integers v over sqrt(2)^k, so every root
    qnet takes while normalizing it, before or after an M, lies in Q[sqrt(2)].
    """
    dim = 1 << nqubits
    v = [0] * dim
    v[rng.randrange(dim)] = 1
    k = 0
    for _ in range(2 * nqubits):
        kind = rng.choice(("H", "H", "X", "Z", "CN"))
        q = rng.randrange(nqubits)
        m = 1 << (nqubits - 1 - q)
        if kind == "H":
            for i in range(dim):
                if not i & m:
                    v[i], v[i | m] = v[i] + v[i | m], v[i] - v[i | m]
            k += 1
            while k >= 2 and all(x % 2 == 0 for x in v):
                v = [x // 2 for x in v]
                k -= 2
        elif kind == "X":
            v = [v[i ^ m] for i in range(dim)]
        elif kind == "Z":
            v = [-x if i & m else x for i, x in enumerate(v)]
        elif nqubits > 1:  # CN with control q
            t = 1 << (nqubits - 1 - rng.choice([x for x in range(nqubits) if x != q]))
            v = [v[i ^ t] if i & m else v[i] for i in range(dim)]
    scale = rng.choice((Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 3), Fraction(5, 4)))
    phase = rng.randrange(4)  # multiply by i**phase
    amplitudes = {}
    for index, x in enumerate(v):
        if x == 0:
            continue
        if k % 2 == 0:
            real = (Fraction(x, 2 ** (k // 2)) * scale, Fraction(0))
        else:
            real = (Fraction(0), Fraction(x, 2 ** ((k + 1) // 2)) * scale)
        neg = (-real[0], -real[1])
        amplitudes[index] = ((real, ZERO), (ZERO, real), (neg, ZERO), (ZERO, neg))[phase]
    return amplitudes


def rational_amplitudes(rng: random.Random, nqubits: int) -> dict:
    """Small random rationals: the squared norm is almost never a square in
    Q[sqrt(2)], so the exact backend defers normalization."""
    amplitudes = {}
    for index in range(1 << nqubits):
        if rng.random() < 0.25:
            continue
        re_part = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        im_part = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if re_part or im_part:
            amplitudes[index] = ((re_part, Fraction(0)), (im_part, Fraction(0)))
    if not amplitudes:
        amplitudes[0] = ((Fraction(1), Fraction(0)), ZERO)
    return amplitudes


def state_file_text(rng: random.Random, amplitudes: dict, nqubits: int) -> str:
    """Non-canonical state file: shuffled terms, some split into duplicates
    that qnet must merge, explicit zero terms, comments and blank lines."""
    entries = []
    for index, (re_part, im_part) in amplitudes.items():
        if rng.random() < 0.3:
            piece = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            entries.append((index, (re_part[0] - piece, re_part[1]), im_part))
            entries.append((index, (piece, Fraction(0)), ZERO))
        else:
            entries.append((index, re_part, im_part))
    for index in range(1 << nqubits):
        if index not in amplitudes and rng.random() < 0.3:
            entries.append((index, ZERO, ZERO))
    rng.shuffle(entries)
    lines = ["# generated state", ""]
    lines += [
        f"{fmt_complex((re_part, im_part))} | {index:0{nqubits}b}"
        for index, re_part, im_part in entries
    ]
    return "\n".join(lines) + "\n"


def unit_payload(rng: random.Random) -> tuple:
    """An exact unit pair (alpha, beta) in Q[sqrt(2)](i).

    Lebesgue's identity (m^2+n^2+p^2+q^2)^2 = (m^2+n^2-p^2-q^2)^2 +
    (2mq+2np)^2 + (2nq-2mp)^2 gives rational parts; a factor (1+i)/sqrt(2)
    on either side brings in sqrt(2).
    """
    while True:
        m, n, p, q = (rng.randint(-3, 3) for _ in range(4))
        total = m * m + n * n + p * p + q * q
        if total:
            break

    def real(num):
        return Fraction(num, total), Fraction(0)

    alpha = (real(m * m + n * n - p * p - q * q), real(2 * (m * q + n * p)))
    beta = (real(2 * (n * q - m * p)), ZERO)
    if rng.random() < 0.5:
        alpha, beta = beta, alpha
    if rng.random() < 0.5:
        beta = ((-beta[1][0], -beta[1][1]), beta[0])  # times i

    def twist(z):  # times (1+i)/sqrt(2)
        re_part, im_part = z
        diff = (re_part[0] - im_part[0], re_part[1] - im_part[1])
        summ = (re_part[0] + im_part[0], re_part[1] + im_part[1])
        return times_half_sqrt2(diff), times_half_sqrt2(summ)

    if rng.random() < 0.4:
        alpha = twist(alpha)
    if rng.random() < 0.4:
        beta = twist(beta)
    return alpha, beta


# --- cases -------------------------------------------------------------------------


def _format(mods, state) -> str:
    return "\n".join(mods.qnet.format_state(state)) + "\n"


def library_case(mods, label, ops, nqubits, backend, draws, check, outcomes=None) -> Case:
    qnet = mods.qnet
    circuit = qnet.parse_circuit(circuit_text(ops, nqubits))
    initial = qnet.zero_qstate(nqubits, backend)
    return Case(
        label=label,
        run=lambda: qnet.run_circuit(circuit, initial, qnet.RandomStream(draws)),
        render=lambda state: _format(mods, state),
        check=check,
        gates=lambda _text: len(ops),
        outcomes=outcomes,
    )


def dense_case(mods, rng, sizes: Sizes) -> Case:
    n = sizes.dense_qubits
    wall, rest = dense_ops(rng, n, sizes.dense_tail)

    @once
    def expected():
        a, b = ref.uniform_amplitude(n)
        signs = ref.sign_walk(rest, n)
        return {index: ((a * s, b * s), ZERO) for index, s in enumerate(signs)}

    def check(text):
        ref.check_exact_state(text.splitlines(), n, expected())

    return library_case(mods, "run_circuit exact", wall + rest, n, mods.qnet.EXACT, (), check)


def approx_case(mods, rng, sizes: Sizes, backend) -> Case:
    n = sizes.approx_qubits
    ops = random_ops(rng, n, sizes.approx_gates)
    draws = random_draws(rng, count_m(ops))

    @once
    def result():  # keep only the final state: the reference's memory is not qnet's
        states, outcomes = ref.simulate(ops, [1] + [0] * ((1 << n) - 1), draws)
        return [states[-1]], outcomes

    def check(text):
        final = result()[0][-1]
        ref.check_close_state(text.splitlines(), n, final, ref.FLOAT_TOL, sparse=False, decimal=False)

    return library_case(mods, "run_circuit approx", ops, n, backend, draws, check,
                        lambda: result()[1])


def cli_case(mods, label, argv, check, gates, outcomes=None) -> Case:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mods.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def render(result):
        code, out, err = result
        if code != 0 or err:
            raise ref.CheckFailed(f"{label}: exit {code}: {err.strip()}")
        return out

    return Case(label, run, render, check, gates, outcomes, cli=True)


def circuit_cli_case(rng, mods, workdir: Path, tag: str, n: int, sizes: Sizes, *, trace: bool,
                     deferred: bool, sparse: bool, randoms_file: bool) -> Case:
    ops = random_ops(rng, n, sizes.cli_gates)
    draws = random_draws(rng, count_m(ops))
    amplitudes = (rational_amplitudes if deferred else stabilizer_amplitudes)(rng, n)
    initial = [0j] * (1 << n)
    for index, z in amplitudes.items():
        initial[index] = complex_value(z)

    @once
    def result():
        states, outcomes = ref.simulate(ops, initial, draws)
        return (states if trace else states[-1:]), outcomes

    header = rng.random() < 0.5
    circuit_path = workdir / f"{tag}.qc"
    circuit_path.write_text(circuit_text(ops, n, header))
    state_path = workdir / f"{tag}.state"
    state_path.write_text(state_file_text(rng, amplitudes, n))
    argv = ["trace" if trace else "run", "--circuit", str(circuit_path), "--state", str(state_path)]
    if not header:
        argv += ["--qubits", str(n)]
    if randoms_file:
        randoms_path = workdir / f"{tag}.rand"
        randoms_path.write_text("# draws\n" + "".join(f"{d}\n" for d in draws))
        argv += ["--randoms-file", str(randoms_path)]
    elif draws:
        argv += ["--randoms", ",".join(map(str, draws))]
    decimal = deferred
    if decimal:
        digits = rng.randint(6, 10)
        argv += ["--emit", "decimal", "--digits", str(digits)]
        tol = 10.0 ** -digits
    else:
        tol = ref.FLOAT_TOL
    if sparse:
        argv.append("--sparse-output")

    def check(text):
        if trace:
            ref.check_trace(text, n, ops, draws, result(), tol, sparse, decimal)
        else:
            ref.check_close_state(text.splitlines(), n, result()[0][-1], tol, sparse, decimal)

    label = f"cli {argv[0]} {'decimal' if decimal else 'exact'}"
    return cli_case(mods, label, argv, check, lambda _text: len(ops), lambda: result()[1])


def teleport_cli_case(rng, mods, approx: bool) -> Case:
    alpha, beta = unit_payload(rng)
    r1, r2 = random_draws(rng, 2)
    m0, m1 = int(r1 > Fraction(1, 2)), int(r2 > Fraction(1, 2))
    argv = ["teleport", "--alpha", fmt_complex(alpha), "--beta", fmt_complex(beta),
            "--r1", str(r1), "--r2", str(r2)]
    if approx:
        argv += ["--backend", "approx"]

    def check(text):
        ref.check_teleport(text, (alpha, beta), m0, m1, exact=not approx)

    # Alice's six gates, then Bob's X and Z corrections
    return cli_case(mods, f"cli teleport {'approx' if approx else 'exact'}", argv, check,
                    lambda _text: 6 + m0 + m1)


def verify_gates(text: str) -> int:
    """Gates behind a verify-teleport report: six per case plus one per set bit
    of its branch ('case i branch xy : PASS')."""
    branches = [line.split()[3] for line in text.splitlines() if line.startswith("case ")]
    return sum(6 + b.count("1") for b in branches)


def verify_cli_case(mods, approx: bool) -> Case:
    argv = ["verify-teleport"] + (["--backend", "approx"] if approx else [])
    return cli_case(mods, f"cli verify-teleport {'approx' if approx else 'exact'}", argv,
                    ref.check_verify, verify_gates)


def cli_round(rng, mods, workdir: Path, j: int, sizes: Sizes) -> list[Case]:
    n = sizes.cli_widths[j % len(sizes.cli_widths)]

    def circuit(t, **kw):
        return circuit_cli_case(rng, mods, workdir, f"r{j}_{t}", n, sizes, **kw)

    return [
        circuit(0, trace=False, deferred=False, sparse=False, randoms_file=True),
        circuit(1, trace=True, deferred=False, sparse=True, randoms_file=False),
        circuit(2, trace=False, deferred=True, sparse=True, randoms_file=True),
        circuit(3, trace=True, deferred=True, sparse=False, randoms_file=False),
        teleport_cli_case(rng, mods, approx=False),
        teleport_cli_case(rng, mods, approx=True),
        verify_cli_case(mods, approx=False),
        verify_cli_case(mods, approx=True),
    ]


def build(name: str, mods, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    """The case pool of workload `name` for `seed`; the same seed gives the same inputs."""
    rng = random.Random(f"perfbench/{name}/{seed}")
    if name == "dense-unitary":
        pool = [dense_case(mods, rng, sizes) for _ in range(sizes.dense_pool)]
    elif name == "approx-deep":
        backend = mods.qnet.ApproxBackend()
        pool = [approx_case(mods, rng, sizes, backend) for _ in range(sizes.approx_pool)]
    elif name == "cli-mixed":
        pool = [c for j in range(sizes.cli_rounds) for c in cli_round(rng, mods, workdir, j, sizes)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(pool, sizes.digest_cases[name], sizes.trace_cases[name])
