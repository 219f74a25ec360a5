"""Command-line front end.

Subcommands:

    run              execute a circuit and print the final state
    trace            same, dumping the state after every gate
    teleport         run the teleportation protocol on one input qubit
    verify-teleport  run the built-in teleportation verification suite

Exit codes: 0 success, 1 stdout closed before the output was written (a
pipe whose reader left, as in ``qnet run ... | head -1``; no traceback),
2 parse/validation error (a runtime domain error from a gate names the
step and the gate; an input number longer than Python reads from text
names that limit), 3 exact rendering hit a non-representable amplitude or
one with more digits than Python converts from int to text, 4 random
stream exhausted, 5 teleportation check failed.
Output is deterministic: identical invocations produce byte-identical
output.

Each ``cmd_*`` returns its exit code and its output lines; ``main`` writes
them to stdout in one piece, after the whole command, so a failing command
prints nothing there.  One ``RenderCache`` per command holds its ``emit``,
``digits`` and ``sparse`` settings.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .errors import (
    EntangledError,
    NotDeterministicError,
    NotRepresentableError,
    ParseError,
    RandomStreamExhausted,
)
from .interpreter import RandomStream, parse_circuit, run_circuit, run_circuit_traced
from .qstate import (
    QState,
    basis_label,
    exact_texts,
    make_qubit,
    max_component_gap,
    narrow_to_qubit,
    normalize,
    parse_state,
    physical_amplitudes,
    zero_qstate,
)
from .scalar import (
    EXACT,
    ApproxBackend,
    Backend,
    format_cscalar,
    format_fixed,
    format_scaled,
    parse_cscalar,
    parse_int,
    parse_rational,
)
from .teleport import DEFAULT_INPUTS, teleport_protocol, verify_teleportation

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_NOT_REPRESENTABLE = 3
EXIT_STREAM = 4
EXIT_FAIL = 5

# Python's default limit on int-to-str conversion (sys.int_info.
# default_max_str_digits): format_fixed cannot print more decimal places.
MAX_DIGITS = 4300


def _backend_from_args(args) -> Backend:
    if args.backend == "exact":
        if args.eps is not None:
            raise ParseError("--eps applies only to --backend approx")
        return EXACT
    if args.eps is None:
        return ApproxBackend()
    eps = parse_rational(args.eps)
    try:
        return ApproxBackend(eps)
    except ValueError:
        raise ParseError("--eps must be positive and below 1") from None


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _initial_state(spec: str, backend: Backend) -> QState:
    if spec.startswith("zero:"):
        count = spec[len("zero:") :]
        width = parse_int(count) if count.isdecimal() else 0
        if width < 1:
            raise ParseError(f"bad initial state {spec!r}")
        return zero_qstate(width, backend)
    if spec.startswith("qubit:"):
        parts = re.split(r"(?<=\))\s*,", spec[len("qubit:") :])
        if len(parts) != 2:
            raise ParseError(f"bad initial state {spec!r}: expected two cplx literals")
        return make_qubit(parse_cscalar(parts[0]), parse_cscalar(parts[1]), backend)
    return parse_state(_read(spec), backend)


def _random_stream(args) -> RandomStream:
    if args.randoms is not None and args.randoms_file is not None:
        raise ParseError("--randoms and --randoms-file are mutually exclusive")
    if args.randoms is not None:
        pieces = args.randoms.split(",")
    elif args.randoms_file is not None:
        pieces = [raw.split("#", 1)[0] for raw in _read(args.randoms_file).splitlines()]
    else:
        pieces = []
    return RandomStream(parse_rational(p) for p in pieces if p.strip())


class RenderCache:
    """The render context of one command: its ``emit``, ``digits`` and
    ``sparse`` settings, fixed for the command, and what its states share
    when rendered: the deferred roots of ``physical_amplitudes``, the basis
    labels of each width, and the text of each integer entry under one
    (unit, scale_sq) key at a time; a new key replaces the texts."""

    def __init__(self, emit: str = "exact", digits: int = 6, sparse: bool = False):
        self.emit, self.digits, self.sparse = emit, digits, sparse
        self.roots: dict = {}
        self.labels: dict[int, list[str]] = {}
        self.key = None
        self.texts: dict[tuple, str] = {}


def render_state(state: QState, cache: RenderCache) -> list[str]:
    """The output lines of one state under the command's settings; only
    the entries that ``cache`` holds no text for are formatted, under the
    state's unit and scale_sq."""
    key = (state.unit, state.scale_sq)
    if key != cache.key:
        cache.key, cache.texts = key, {}
    texts, digits = cache.texts, cache.digits
    entries = state.entries()
    missing = [entry for entry in dict.fromkeys(entries) if entry not in texts]
    if missing:
        if cache.emit == "exact":
            texts.update(zip(missing, exact_texts(state, missing)))
        else:
            amplitudes = physical_amplitudes(state, missing, digits, cache.roots)
            texts.update(
                (entry, f"({format_scaled(re, digits)}, {format_scaled(im, digits)})")
                for entry, (re, im) in zip(missing, amplitudes)
            )
    n = state.nqubits
    if n not in cache.labels:
        cache.labels[n] = [basis_label(i, n) for i in range(1 << n)]
    return [
        f"{texts[entry]} | {label}"
        for entry, label in zip(entries, cache.labels[n])
        if not cache.sparse or any(entry)
    ]


def cmd_run(args) -> tuple[int, list[str]]:
    if args.emit == "exact" and args.digits is not None:
        raise ParseError("--digits applies only to --emit decimal")
    digits = args.digits if args.digits is not None else 6
    if not 1 <= digits <= MAX_DIGITS:
        raise ParseError(f"--digits must be in 1..{MAX_DIGITS}")
    backend = _backend_from_args(args)
    if args.qubits is not None and args.qubits < 1:
        raise ParseError("--qubits must be at least 1")
    circuit = parse_circuit(_read(args.circuit), args.qubits)
    initial = _initial_state(args.state, backend)
    stream = _random_stream(args)
    cache = RenderCache(args.emit, digits, args.sparse_output)
    if args.command == "trace":
        _, events = run_circuit_traced(circuit, initial, stream)
        lines = ["# initial", *render_state(normalize(initial), cache)]
        for event in events:
            label = f"# step {event.step}: {event.gate}"
            if event.draw is not None:
                label += f" r={event.draw}"
            lines += ["", label, *render_state(event.state, cache)]
        return EXIT_OK, lines
    return EXIT_OK, render_state(run_circuit(circuit, initial, stream), cache)


def cmd_teleport(args) -> tuple[int, list[str]]:
    backend = _backend_from_args(args)
    alpha = parse_cscalar(args.alpha)
    beta = parse_cscalar(args.beta)
    r1 = parse_rational(args.r1)
    r2 = parse_rational(args.r2)
    final = teleport_protocol(alpha, beta, r1, r2, backend)
    lines = ["# final state", *render_state(final, RenderCache())]
    narrowed = narrow_to_qubit(final, 2)
    expected = make_qubit(alpha, beta, backend)
    lines.append(f"# qubit 2:  {format_cscalar(narrowed.coeff(0))} {format_cscalar(narrowed.coeff(1))}")
    lines.append(f"# expected: {format_cscalar(expected.coeff(0))} {format_cscalar(expected.coeff(1))}")
    if isinstance(backend, ApproxBackend):
        deviation = max_component_gap(narrowed, expected)
        passed = deviation <= backend.check_tol
        lines.append(f"# max deviation: {format_fixed(deviation, 10)}")
    else:
        passed = narrowed == expected
        lines.append("# max deviation: 0.0000000000" if passed else "# states differ")
    lines.append("PASS" if passed else "FAIL")
    return (EXIT_OK if passed else EXIT_FAIL), lines


def cmd_verify_teleport(args) -> tuple[int, list[str]]:
    backend = _backend_from_args(args)
    report = verify_teleportation(DEFAULT_INPUTS, backend)
    lines = [f"# teleportation verification, backend {backend.name}, {len(report.cases)} cases"]
    for case in report.cases:
        lines.append(
            f"# input alpha={format_cscalar(case.alpha)}"
            f" beta={format_cscalar(case.beta)}: {case.detail}"
        )
        lines.append(case.summary_line())
    lines.append("PASS" if report.all_passed else "FAIL")
    return (EXIT_OK if report.all_passed else EXIT_FAIL), lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnet",
        description="Quantum-circuit netlist interpreter with exact"
        " Q[sqrt(2)] and approximate rational backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flags(p, eps_note=""):
        p.add_argument(
            "--backend", choices=("exact", "approx"), default="exact",
            help="scalar backend (default: exact)",
        )
        p.add_argument(
            "--eps", metavar="RAT", default=None,
            help="tolerance for the approx backend, above 0 and below 1"
            f" (default {ApproxBackend.eps}){eps_note}",
        )

    for name, text in (("run", "execute a circuit"), ("trace", "execute a circuit, dumping each step")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--circuit", required=True, help="circuit file")
        p.add_argument(
            "--state", required=True,
            help="initial state: a state file path, zero:<n>, or qubit:<cplx>,<cplx>",
        )
        p.add_argument("--qubits", type=int, default=None, help="declared qubit count")
        p.add_argument("--randoms", default=None, help="comma-separated rational draws")
        p.add_argument("--randoms-file", default=None, help="file with one rational draw per line")
        add_backend_flags(p)
        p.add_argument(
            "--emit", choices=("exact", "decimal"), default="exact",
            help="output rendering (default: exact)",
        )
        p.add_argument(
            "--digits", type=int, default=None,
            help=f"decimal places for --emit decimal, 1..{MAX_DIGITS} (default 6)",
        )
        p.add_argument(
            "--sparse-output", action="store_true",
            help="omit zero-coefficient terms from the output",
        )
        p.set_defaults(func=cmd_run)

    p = sub.add_parser("teleport", help="run the teleportation protocol once")
    p.add_argument("--alpha", required=True, help="payload |0> coefficient, cplx literal")
    p.add_argument("--beta", required=True, help="payload |1> coefficient, cplx literal")
    p.add_argument("--r1", required=True, help="first measurement draw, rational")
    p.add_argument("--r2", required=True, help="second measurement draw, rational")
    add_backend_flags(
        p, "; the final state prints exactly, so an eps small enough to give an"
        f" amplitude more than {MAX_DIGITS} digits exits 3",
    )
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("verify-teleport", help="run the built-in verification suite")
    add_backend_flags(p)
    p.set_defaults(func=cmd_verify_teleport)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
        print("\n".join(lines))  # the one stdout write: a failing command prints nothing
        sys.stdout.flush()  # a pipe closed after the print fails here
        return code
    except BrokenPipeError:
        # the reader left; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NotRepresentableError as exc:
        print(f"qnet: error: {exc}", file=sys.stderr)
        if args.func is cmd_run:  # only run and trace have an --emit to change
            approx = "" if args.backend == "approx" else "--backend approx or "
            print(f"qnet: hint: try {approx}--emit decimal", file=sys.stderr)
        return EXIT_NOT_REPRESENTABLE
    except RandomStreamExhausted as exc:
        print(f"qnet: error: {exc}", file=sys.stderr)
        return EXIT_STREAM
    except (
        ParseError,
        ValueError,
        ZeroDivisionError,
        IndexError,
        EntangledError,
        NotDeterministicError,
    ) as exc:
        print(f"qnet: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
