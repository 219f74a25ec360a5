"""The benchmark's own tests, at the fixed smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import cases
import reference as ref
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_tests_module(name):
    spec = importlib.util.spec_from_file_location(f"qnet_tests_{name}", ROOT / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def smoke_workload(name, workdir, seed=1):
    mods, workload, _ = run.setup(name, seed, cases.SMOKE, workdir)
    return mods, workload


def first_output(workload, index):
    case = workload.pool[index]
    return case, case.render(case.run())


# --- whole runs -------------------------------------------------------------------------


@pytest.mark.parametrize("name", cases.WORKLOADS)
def test_untraced_smoke_run_is_correct_and_reports_every_metric(name, workdir):
    report = run.measure(name, 1, 0, False, cases.SMOKE, workdir)
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] >= report["extra"]["case_ms.samples"] > 0
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        value, unit = report["metrics"][metric["name"]]
        assert value > 0 and unit == metric["unit"]
    assert report["extra"]["fail_ratio"] == 0


def test_times_are_scaled_by_the_speed_probe(workdir, monkeypatch):
    # a host at half the reference speed: the probe takes twice its reference time
    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_REF_MS / 1e3)
    report = run.measure("dense-unitary", 1, 0, False, cases.SMOKE, workdir)
    metrics, wall = report["metrics"], report["extra"]["wall"]
    assert report["extra"]["speed_scale"] == 0.5
    assert metrics["case_ms.p50"][0] == pytest.approx(wall["case_ms.p50"][0] / 2)
    assert metrics["setup_s"][0] == pytest.approx(wall["setup_s"][0] / 2)
    assert metrics["gates_per_s"][0] == pytest.approx(wall["gates_per_s"][0] * 2)


@pytest.mark.parametrize("name", cases.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(name, workdir, tmp_path):
    spans = tmp_path / "spans.jsonl"
    report = run.measure(name, 1, 0, True, cases.SMOKE, workdir, spans_path=spans)
    assert report["correct"], report["failures"]
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert report["metrics"][metric["name"]][1] == metric["unit"]
    metrics = {k: v for k, (v, _) in report["metrics"].items()}
    assert metrics["trace.coverage_ratio"] > run.MIN_COVERAGE
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["interpreter.runs"] > 0
    assert report["extra"]["counts_repeat"]
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "case"}


def test_traced_metrics_see_each_workloads_layer(workdir):
    def traced(name):
        report = run.measure(name, 2, 0, True, cases.SMOKE, workdir)
        return {k: v for k, (v, _) in report["metrics"].items()}

    dense = traced("dense-unitary")
    assert dense["gates.H.calls"] == 2 * cases.SMOKE.dense_qubits  # two traced cases
    assert dense["qstate.normalize.unit_input_ratio"] == 1
    assert dense["scalar.qext_div.by_sqrt2_ratio"] > 0
    approx = traced("approx-deep")
    assert approx["scalar.iter_sqrt.calls"] >= approx["qstate.normalize.calls"] > 0
    assert approx["scalar.qext_div.calls"] == 0
    cli = traced("cli-mixed")
    assert cli["cli.output_bytes"] > 0 and cli["teleport.verify.ms"] > 0
    assert cli["qstate.parse.ms"] > 0 and cli["qstate.narrow.ms"] > 0


def test_digest_repeats_for_a_seed_and_changes_with_it(workdir):
    def digest(seed):
        return run.measure("cli-mixed", seed, 0, False, cases.SMOKE, workdir)["extra"]["digest"]

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_inputs_repeat_for_a_seed(workdir):
    def generated_files(seed):
        smoke_workload("cli-mixed", workdir, seed)
        return [p.read_text() for p in sorted(workdir.iterdir())]

    assert generated_files(3) == generated_files(3)
    assert generated_files(3) != generated_files(4)


# --- the output check catches corrupted outputs ---------------------------------------------


def test_dense_check_catches_one_flipped_sign(workdir):
    _, workload = smoke_workload("dense-unitary", workdir)
    case, text = first_output(workload, 0)
    case.check(text)
    lines = text.splitlines()
    lines[3] = "(" + lines[3][2:] if lines[3].startswith("(-") else "(-" + lines[3][1:]
    with pytest.raises(ref.CheckFailed):
        case.check("\n".join(lines) + "\n")


def test_runner_counts_a_corrupted_output_as_failed(workdir):
    _, workload = smoke_workload("dense-unitary", workdir)
    case = workload.pool[0]
    render = case.render
    case.render = lambda result: render(result).replace("(1/", "(-1/", 1)
    runner = run.Runner(workload)
    runner.execute(0)
    runner.execute(1)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "amplitude" in runner.failures[0]


def test_traced_run_catches_a_changed_m_outcome(workdir):
    mods, workload = smoke_workload("approx-deep", workdir)
    case = next(c for c in workload.pool if c.outcomes())
    index = workload.pool.index(case)
    right = case.outcomes()
    case.outcomes = lambda: [1 - right[0]] + right[1:]
    runner = run.Runner(workload)
    tracer = Tracer(mods)
    tracer.install()
    try:
        runner.execute(index, tracer)
    finally:
        tracer.uninstall()
    assert runner.failed == 1 and "M outcomes" in runner.failures[0]


def cli_output(mods, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert mods.cli.main(argv) == 0
    return out.getvalue()


def test_trace_check_catches_a_changed_m_outcome(workdir):
    mods, _ = smoke_workload("cli-mixed", workdir)
    ops = [("H", 0), ("CN", 0, 1), ("M", 1), ("H", 1)]
    draws = [Fraction(3, 1009)]
    circuit = workdir / "m.qc"
    circuit.write_text(cases.circuit_text(ops, 2))
    text = cli_output(mods, ["trace", "--circuit", str(circuit), "--state", "zero:2",
                             "--randoms", "3/1009", "--sparse-output"])
    result = ref.simulate(ops, [1, 0, 0, 0], draws)
    ref.check_trace(text, 2, ops, draws, result, ref.FLOAT_TOL, True, False)
    # the M step kept |00>; print the other branch |11> instead
    corrupted = text.replace("# step 3: M 1 r=3/1009\n(1, 0) | 00",
                             "# step 3: M 1 r=3/1009\n(1, 0) | 11")
    assert corrupted != text
    with pytest.raises(ref.CheckFailed, match="M outcome 1, reference 0"):
        ref.check_trace(corrupted, 2, ops, draws, result, ref.FLOAT_TOL, True, False)


def test_decimal_check_catches_an_amplitude_two_units_off_in_the_last_digit(workdir):
    _, workload = smoke_workload("cli-mixed", workdir)
    case, text = first_output(workload, 2)  # run, deferred state, --emit decimal
    case.check(text)
    line = text.splitlines()[0]
    head, rest = line.split(",", 1)
    last = int(head[-1])
    bumped = head[:-1] + str((last + 2) % 10)
    with pytest.raises(ref.CheckFailed):
        case.check(text.replace(line, bumped + "," + rest, 1))


def test_teleport_check_demands_the_exact_payload_and_pass(workdir):
    _, workload = smoke_workload("cli-mixed", workdir)
    case, text = first_output(workload, 4)  # teleport, exact backend
    case.check(text)
    lines = text.splitlines()
    nonzero = next(i for i, line in enumerate(lines[1:9], 1) if not line.startswith("(0, 0)"))
    lines[nonzero] = "(1/1000, 0) |" + lines[nonzero].split("|")[1]  # payload denominators stay below 100
    with pytest.raises(ref.CheckFailed):
        case.check("\n".join(lines) + "\n")
    with pytest.raises(ref.CheckFailed):
        case.check(text.replace("PASS", "FAIL"))


def test_verify_check_demands_pass(workdir):
    _, workload = smoke_workload("cli-mixed", workdir)
    case, text = first_output(workload, 6)
    case.check(text)
    with pytest.raises(ref.CheckFailed):
        case.check(text.replace("case 3 branch 11 : PASS", "case 3 branch 11 : FAIL"))


# --- the reference itself --------------------------------------------------------------------


def test_reference_agrees_with_the_test_suite_oracle():
    oracle = load_tests_module("oracle")
    rng = random.Random(7)
    for _ in range(20):
        ops = cases.random_ops(rng, 3, 40)
        draws = cases.random_draws(rng, cases.count_m(ops))
        initial = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(8)]
        if not any(initial):
            initial[0] = 1
        states, _ = ref.simulate(ops, initial, draws)
        expected = oracle.run(ops, initial, draws)
        assert max(abs(a - b) for a, b in zip(states[-1], expected)) < 1e-12


def test_circuit_generator_is_the_test_suites():
    run.import_qnet()
    support = load_tests_module("support")
    assert cases.random_ops(random.Random(9), 5, 300) == support.rand_circuit_ops(random.Random(9), 5, 300)


def test_sign_walk_and_parser_read_exact_values():
    assert ref.parse_real("-3/4+1/2*s2", False) == (Fraction(-3, 4), Fraction(1, 2))
    assert ref.parse_real("1/2-3*s2", False) == (Fraction(1, 2), Fraction(-3))
    assert ref.parse_real("-1/8*s2", False) == (Fraction(0), Fraction(-1, 8))
    assert ref.uniform_amplitude(3) == (Fraction(0), Fraction(1, 4))
    assert ref.sign_walk([("Z", 0), ("X", 1)], 2) == [1, 1, -1, -1]
    with pytest.raises(ref.CheckFailed):
        ref.parse_real("1/2 * s2", False)


# --- the command-line contract -----------------------------------------------------------------------


def test_run_fails_without_qnet_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import qnet" in proc.stderr


def test_result_line_has_exactly_the_four_keys(workdir, capsys):
    code = run.main(["--workload", "approx-deep", "--seed", "1", "--seconds", "0", "--trace", "0",
                     "--smoke", "--results", str(workdir)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())
    record = json.loads((workdir / "approx-deep-seed1-trace0.json").read_text())["environment"]
    assert {"commit", "seed", "python", "nproc", "cpu_model"} <= set(record)
