"""qnet benchmark: one workload per process, inputs made from --seed.

    python3 perfbench/run.py --workload dense-unitary --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50     # every workload, a table
    python3 perfbench/run.py --workload cli-mixed --seed 1 --seconds 5 --trace 1 --smoke

With --trace 0 the run measures the end-to-end metrics, with every time
taken at reference machine speed (see probe()); with --trace 1 it
alternates untraced and traced passes over a fixed list of cases and reports
the per-layer metrics (see tracer.py) and the tracing overhead. Every output
is checked against the benchmark's own reference (reference.py); the last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"},
and the exit code is 1 when any output was wrong. A results file with an
environment record goes to perfbench/results/.

qnet is imported from src/ next to this directory and nowhere else; without
it the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import cases  # noqa: E402  (this directory is sys.path[0] when run as a script)
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

QNET_MODULES = ("scalar", "qstate", "gates", "interpreter", "teleport", "cli")

#: Set-ups per run; setup_s is their median. One set-up lasts under a second,
#: and single set-ups of one run differed by a third on a shared 2-vCPU VM.
SETUPS = 7

#: p90 is reported only with at least ten samples beyond it.
P90_MIN_CASES = 100

#: Share of traced case time the layers must account for before the run warns.
MIN_COVERAGE = 0.95

#: The speed probe: Fraction steps per probe, the probe's time in ms at the
#: reference speed, and the least run time between two probes.
PROBE_STEPS = 1000
PROBE_REF_MS = 10.0
PROBE_EVERY_S = 0.5


class QnetMissing(Exception):
    pass


def import_qnet() -> SimpleNamespace:
    """Import qnet afresh from this checkout's src/, dropping any earlier import."""
    if not (SRC / "qnet" / "__init__.py").is_file():
        raise QnetMissing(f"no qnet sources under {SRC}")
    for name in [n for n in sys.modules if n == "qnet" or n.startswith("qnet.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(qnet=importlib.import_module("qnet"))
    for name in QNET_MODULES:
        setattr(mods, name, importlib.import_module(f"qnet.{name}"))
    if Path(mods.qnet.__file__).resolve().parent != SRC / "qnet":
        raise QnetMissing(f"imported qnet from {mods.qnet.__file__}, not {SRC}")
    return mods


# --- environment record ---------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


# --- machine speed --------------------------------------------------------------------


def probe() -> float:
    """Seconds a fixed, qnet-free Fraction workload takes now.

    A virtual machine's speed follows its host's other tenants: on a 2-vCPU
    VM the same dense-unitary case took 0.52 s in one 50 s run and 0.92 s in
    another a few minutes later. qnet's work is Python Fraction
    arithmetic, like this probe's, so both slow down together: scaling a
    run's times by PROBE_REF_MS over the probe's median puts every run at
    one reference speed and leaves what qnet itself costs. Over six 50 s
    windows of one process the spread of the median dense case time was
    0.57 as measured and 0.063 so scaled (cli-mixed: 0.14 and 0.067).
    """
    start = perf_counter()
    x = Fraction(1, 3)
    for _ in range(PROBE_STEPS):
        x = (x * Fraction(7, 5) + Fraction(1, 7)) / Fraction(3, 2)
        if x.denominator.bit_length() > 2000:
            x = Fraction(1, 3)
    return perf_counter() - start


# --- running cases --------------------------------------------------------------------


class Runner:
    """Runs cases, checks every output, and keeps the tallies."""

    def __init__(self, workload: cases.Workload):
        self.workload = workload
        self.times_ms: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.gates = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verified: dict[int, str] = {}  # pool index -> first checked output

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"case {index} ({self.workload.pool[index].label}): {message}")

    def execute(self, index: int, tracer: Tracer | None = None) -> tuple[float, str | None]:
        """Run pool case `index` once; returns (wall seconds, output or None on failure)."""
        case = self.workload.pool[index]
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                result = case.run()
            else:
                with tracer.case(index):
                    result = case.run()
        except Exception as exc:  # a raising case is a failed case, and the run goes on
            self.fail(index, f"raised {type(exc).__name__}: {exc}")
            return perf_counter() - start, None
        wall = perf_counter() - start
        try:
            text = case.render(result)
            known = self.verified.get(index)
            if known is None:
                case.check(text)
                self.verified[index] = text
            elif text != known:
                raise reference.CheckFailed("output differs from the first run of the same case")
            if tracer is not None and case.outcomes is not None:
                seen, want = tracer.outcomes.get(index, []), case.outcomes()
                if seen != want:
                    raise reference.CheckFailed(f"M outcomes {seen}, reference {want}")
        except reference.CheckFailed as exc:
            self.fail(index, str(exc))
            return wall, None
        self.times_ms.append(wall * 1e3)
        self.by_label.setdefault(case.label, []).append(wall * 1e3)
        self.gates += case.gates(text)
        return wall, text

    def digest(self) -> str:
        """sha256 over the outputs of the first digest_cases pool cases, which every run executes."""
        h = hashlib.sha256()
        for index in range(self.workload.digest_cases):
            h.update(self.verified.get(index, "<failed>").encode())
            h.update(b"\0")
        return h.hexdigest()


def setup(name: str, seed: int, sizes: cases.Sizes, workdir: Path):
    """Import qnet, generate the inputs and warm up: SETUPS times, keeping the last."""
    times = []
    for _ in range(SETUPS):
        start = perf_counter()
        mods = import_qnet()
        workload = cases.build(name, mods, seed, sizes, workdir)
        warm = 8 if name == "cli-mixed" else 1
        for case in workload.pool[:warm]:
            case.run()
        times.append(perf_counter() - start)
    return mods, workload, times


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: cases.Sizes,
            workdir: Path, spans_path: Path | None = None) -> dict:
    mods, workload, setup_times = setup(name, seed, sizes, workdir)
    runner = Runner(workload)
    pool = len(workload.pool)
    deadline = perf_counter() + seconds
    report = {"workload": name, "setup_s_samples": setup_times}

    if not trace:
        i = 0
        probes = []
        next_probe = perf_counter()
        while i < workload.digest_cases or perf_counter() < deadline:
            runner.execute(i % pool)
            i += 1
            if perf_counter() >= next_probe:
                probes.append(probe())
                next_probe = perf_counter() + PROBE_EVERY_S
        n = len(runner.times_ms)
        wall_s = sum(runner.times_ms) / 1e3
        p90 = statistics.quantiles(runner.times_ms, n=10)[-1] if n >= P90_MIN_CASES else None
        wall = {
            "gates_per_s": (runner.gates / wall_s if wall_s else 0.0, "1/s"),
            "case_ms.p50": (statistics.median(runner.times_ms) if n else 0.0, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        scale = PROBE_REF_MS / (statistics.median(probes) * 1e3)  # wall time -> reference time
        metrics = {
            "gates_per_s": (wall["gates_per_s"][0] / scale, "1/s"),
            "case_ms.p50": (wall["case_ms.p50"][0] * scale, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (wall["setup_s"][0] * scale, "s"),
        }
        if p90 is not None:
            wall["case_ms.p90"] = (p90, "ms")
        extra = {
            "case_ms.p90": (p90 * scale, "ms") if p90 is not None else None,
            "case_ms.samples": n,
            "wall": wall,
            "probe_ms": [x * 1e3 for x in probes],
            "speed_scale": scale,
            "fail_ratio": runner.failed / runner.attempted,
            "gates": runner.gates,
            "timed_wall_s": wall_s,
            "digest": runner.digest(),
            "case_ms_by_label": {k: statistics.median(v) for k, v in sorted(runner.by_label.items())},
        }
    else:
        trace_list = range(min(workload.trace_cases, pool))
        untraced, traced, per_pass = [], [], []
        while True:
            untraced.append(sum(runner.execute(i)[0] for i in trace_list))
            tracer = Tracer(mods)
            tracer.install()
            try:
                walls, out_bytes = [], 0
                for i in trace_list:
                    wall, text = runner.execute(i, tracer)
                    walls.append(wall)
                    if text is not None and workload.pool[i].cli:
                        out_bytes += len(text.encode())
            finally:
                tracer.uninstall()
            traced.append(sum(walls))
            layer = tracer.metrics(out_bytes)
            layer["trace.coverage_ratio"] = (tracer.coverage(), "ratio")
            layer["trace.spans"] = (len(tracer.spans), "count")
            per_pass.append(layer)
            if len(per_pass) == 1:
                first_tracer = tracer
            if perf_counter() >= deadline:
                break
        if spans_path is not None:
            first_tracer.write_spans(spans_path)
        metrics = {
            key: (statistics.median(p[key][0] for p in per_pass), unit)
            for key, (_, unit) in per_pass[0].items()
        }
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
        metrics["trace.passes"] = (len(per_pass), "count")
        extra = {
            "fail_ratio": runner.failed / runner.attempted,
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "counts_repeat": all(
                p[k][0] == per_pass[0][k][0] for p in per_pass for k in p
                if p[k][1] in ("count", "bits", "bytes") and k != "trace.passes"
            ),
        }
    report.update(
        correct=runner.failed == 0,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        metrics=metrics,
        extra=extra,
    )
    return report


# --- output ---------------------------------------------------------------------------


def print_human(report: dict, trace: bool) -> None:
    print(f"# perfbench {report['workload']} ({'traced' if trace else 'untraced'})")
    for key, (value, unit) in report["metrics"].items():
        print(f"{key:36s} {value:14.6g} {unit}")
    extra = report["extra"]
    if not trace:
        p90 = extra["case_ms.p90"]
        n = extra["case_ms.samples"]
        if p90 is None:
            print(f"{'case_ms.p90':36s} {'not reported':>14s} (n={n} < {P90_MIN_CASES})")
        else:
            print(f"{'case_ms.p90':36s} {p90[0]:14.6g} ms (n={n})")
        print(f"{'case_ms.samples':36s} {n:14d} count")
        for key, (value, unit) in extra["wall"].items():
            print(f"{'wall.' + key:36s} {value:14.6g} {unit} (as measured)")
        print(f"{'probe_ms.p50':36s} {statistics.median(extra['probe_ms']):14.6g} ms "
              f"(n={len(extra['probe_ms'])}; reference {PROBE_REF_MS:g} ms)")
        print(f"{'digest':36s} sha256:{extra['digest']}")
    elif report["metrics"]["trace.coverage_ratio"][0] < MIN_COVERAGE:
        print(f"WARNING layer self times cover less than {MIN_COVERAGE:.0%} of the traced case time:"
              " some qnet layer is reached by a name the tracer does not wrap")
    print(f"{'fail_ratio':36s} {extra['fail_ratio']:14.6g} ratio "
          f"({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    })


def run_all(args, results: Path) -> int:
    """Every workload, each in its own process, one after another; prints a table."""
    rows = {}
    for name in cases.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--results", str(results)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            rows[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rows[name] = {"correct": False, "error": f"exit {proc.returncode}"}
    summary = {"environment": environment(args.seed), "trace": args.trace, "workloads": rows}
    (results / f"all-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=2))
    return 0 if all(r.get("correct") for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fixed sizes that finish in seconds")
    parser.add_argument("--results", type=Path, default=HERE / "results", help="directory for results files")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        import_qnet()
    except (QnetMissing, ImportError) as exc:
        print(f"perfbench: cannot import qnet: {exc}", file=sys.stderr)
        return 2
    args.results.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args, args.results)

    sizes = cases.SMOKE if args.smoke else cases.FULL
    stem = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        report = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), sizes, Path(workdir),
            spans_path=args.results / f"{stem}-spans.jsonl" if args.trace else None,
        )
    report["environment"] = environment(args.seed)
    report["args"] = {"seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}
    (args.results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    print_human(report, bool(args.trace))
    print(result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
