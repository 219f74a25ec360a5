"""Spans and counters at qnet's module boundaries, recorded from outside qnet.

`Tracer.install` wraps the public functions of the six working modules
(`scalar`, `qstate`, `gates`, `interpreter`, `teleport`, `cli`) and patches
each name wherever a qnet module binds it, because modules import one
another's functions by name (`interpreter` imports `normalize`, `cli`
imports `run_circuit` and `format_state`). `errors` does no work.

A span records its name, start, end, parent and case id and stays in memory
until `write_spans`. A span's self time is its duration minus its children.
Scalar operations are too many to keep one span each: they are leaves whose
calls and time are summed and charged to the span that is open.

Probes that read a state to count terms or coefficient bits run inside a
span but are timed and left out of every open span's duration, so they
cost tracing overhead without moving any layer's time. Calls outside a
case, such as the benchmark rendering an output to check it, go untraced.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter_ns

#: Span name -> (module, function) of the public functions it wraps.
SPANS = {
    "gates.X": [("gates", "gate_X")],
    "gates.Z": [("gates", "gate_Z")],
    "gates.H": [("gates", "gate_H")],
    "gates.I": [("gates", "gate_I")],
    "gates.CN": [("gates", "gate_CN")],
    "gates.M": [("gates", "gate_M")],
    "qstate.normalize": [("qstate", "normalize")],
    "qstate.parse": [("qstate", "parse_state")],
    "qstate.render": [("qstate", "format_state"), ("qstate", "physical_amplitudes")],
    "qstate.narrow": [("qstate", "narrow_to_qubit")],
    "interpreter.run": [("interpreter", "run_circuit"), ("interpreter", "run_circuit_traced")],
    "interpreter.parse": [("interpreter", "parse_circuit")],
    "teleport.protocol": [("teleport", "teleport_protocol")],
    "teleport.verify": [("teleport", "verify_teleportation")],
    "cli.main": [("cli", "main")],
    "cli.render": [("cli", "render_state")],
}

GATE_NAMES = ("X", "Z", "H", "I", "CN", "M")

ROOT = "case"


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_bits(x.a), _bits(x.b))  # QExt a + b*sqrt(2)


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, case, net_ns)
        self.stack: list[list] = []  # open: [id, name, start_ns, child_ns, excluded_ns, parent]
        self.self_ns: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.outcomes: dict = defaultdict(list)  # case id -> M outcomes seen
        self.case_id = None
        self.paused = True  # no case open, or a probe running
        self._next_id = 0
        self._undo: list = []

    # --- span bookkeeping -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        frame = [self._next_id, name, perf_counter_ns(), 0, 0, parent]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        sid, name, start, child, excluded, parent = frame
        net = end - start - excluded
        self.self_ns[name] += net - child
        if self.stack:
            self.stack[-1][3] += net
        self.spans.append((sid, name, start, end, parent, self.case_id, net))

    def _probe(self, fn, *args) -> None:
        start = perf_counter_ns()
        self.paused = True
        try:
            fn(*args)
        finally:
            self.paused = False  # probes run only inside a case
            spent = perf_counter_ns() - start
            for frame in self.stack:
                frame[4] += spent

    def case(self, case_id):
        """Context manager: the root span of one case."""
        tracer = self

        class _Case:
            def __enter__(self):
                tracer.case_id = case_id
                tracer.paused = False
                self.frame = tracer._open(ROOT)

            def __exit__(self, *exc):
                tracer._close(self.frame)
                tracer.paused = True
                tracer.case_id = None

        return _Case()

    # --- wrappers -----------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                if before:
                    tracer._probe(before, args)
                result = fn(*args, **kwargs)
                if after:
                    tracer._probe(after, args, result)
                return result
            finally:
                tracer._close(frame)

        return wrapper

    def _leaf(self, name, fn, hit=None):
        """Timed scalar leaf; `hit(args, result)` counts a sub-outcome."""
        tracer = self

        def wrapper(*args):
            if tracer.paused:
                return fn(*args)
            start = perf_counter_ns()
            result = fn(*args)
            spent = perf_counter_ns() - start
            tracer.leaf_calls[name] += 1
            tracer.leaf_ns[name] += spent
            if hit is not None and hit(args, result):
                tracer.counts[name + ".hit"] += 1
            tracer.stack[-1][3] += spent
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args):
            if not tracer.paused:
                tracer.counts[name] += 1
            return fn(*args)

        return wrapper

    # --- probes -----------------------------------------------------------------------

    def _gate_input(self, args) -> None:
        coeffs = args[0].coeffs()
        self.counts["terms_in"] += len(coeffs)
        self.counts["nonzero_in"] += sum(1 for c in coeffs if c)

    def _gate_m_output(self, args, state) -> None:
        mask = 1 << (state.nqubits - 1 - args[1])
        one_side = any(c for i, c in enumerate(state.coeffs()) if i & mask)
        self.outcomes[self.case_id].append(int(one_side))

    def _normalize_output(self, args, state) -> None:
        before = args[0]
        unchanged = state.scale_sq == before.scale_sq and state.coeffs() == before.coeffs()
        self.counts["normalize.unit_input"] += unchanged
        self.counts["normalize.deferred"] += state.scale_sq != 1
        peak = max(max(_bits(c.re), _bits(c.im)) for c in state.coeffs())
        self.counts["coeff_bits.peak"] = max(self.counts["coeff_bits.peak"], peak)

    # --- patching -------------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every qnet module attribute that holds `original`."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "qnet" or name.startswith("qnet.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        mods = self.mods
        probes = {
            "qstate.normalize": (None, self._normalize_output),
            "gates.M": (self._gate_input, self._gate_m_output),
        }
        for gate in GATE_NAMES:
            probes.setdefault(f"gates.{gate}", (self._gate_input, None))
        for name, targets in SPANS.items():
            before, after = probes.get(name, (None, None))
            for module_name, func_name in targets:
                original = getattr(getattr(mods, module_name), func_name)
                self._replace_everywhere(original, self._span(name, original, before, after))

        qext = mods.scalar.QExt
        sqrt2 = qext(0, 1)
        self._replace_method(qext, "__truediv__", self._leaf(
            "scalar.qext_div", qext.__truediv__,
            lambda args, _r: isinstance(args[1], qext) and args[1] == sqrt2))
        self._replace_method(qext, "sqrt", self._leaf(
            "scalar.qext_sqrt", qext.sqrt, lambda _a, result: result is not None))
        for attr in ("__mul__", "__rmul__"):
            self._replace_method(qext, attr, self._counted("scalar.qext_mul", qext.__dict__[attr]))
        iter_sqrt = mods.scalar.iter_sqrt
        self._replace_everywhere(iter_sqrt, self._leaf("scalar.iter_sqrt", iter_sqrt))
        stream = mods.interpreter.RandomStream
        self._replace_method(stream, "draw", self._counted("interpreter.draws", stream.draw))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # --- results ----------------------------------------------------------------------

    def _inclusive_ms(self, names, under=None) -> float:
        """Summed duration of spans named in `names`, skipping those nested in
        another such span, optionally only within spans named `under`."""
        by_id = {s[0]: s for s in self.spans}

        def has_ancestor(span, wanted):
            parent = span[4]
            while parent is not None:
                p = by_id[parent]
                if p[1] in wanted:
                    return True
                parent = p[4]
            return False

        total = 0
        for span in self.spans:
            if span[1] not in names or has_ancestor(span, names):
                continue
            if under is not None and not has_ancestor(span, under):
                continue
            total += span[6]
        return total / 1e6

    def metrics(self, cli_output_bytes: int) -> dict:
        """Per-layer metrics of everything recorded so far: {name: (value, unit)}."""
        calls = Counter(s[1] for s in self.spans)
        c = self.counts

        def ms(names, under=None):
            return self._inclusive_ms(set(names), under), "ms"

        def ratio(part, whole):
            return (part / whole if whole else 0.0), "ratio"

        gate_ns = sum(self._inclusive_ms({f"gates.{g}"}) for g in GATE_NAMES) * 1e6
        out = {
            "scalar.qext_div.calls": (self.leaf_calls["scalar.qext_div"], "count"),
            "scalar.qext_div.ms": (self.leaf_ns["scalar.qext_div"] / 1e6, "ms"),
            "scalar.qext_div.by_sqrt2_ratio": ratio(c["scalar.qext_div.hit"], self.leaf_calls["scalar.qext_div"]),
            "scalar.qext_mul.calls": (c["scalar.qext_mul"], "count"),
            "scalar.qext_sqrt.calls": (self.leaf_calls["scalar.qext_sqrt"], "count"),
            "scalar.qext_sqrt.in_field_ratio": ratio(c["scalar.qext_sqrt.hit"], self.leaf_calls["scalar.qext_sqrt"]),
            "scalar.iter_sqrt.calls": (self.leaf_calls["scalar.iter_sqrt"], "count"),
            "scalar.iter_sqrt.ms": (self.leaf_ns["scalar.iter_sqrt"] / 1e6, "ms"),
            "scalar.coeff_bits.peak": (c["coeff_bits.peak"], "bits"),
            "qstate.normalize.calls": (calls["qstate.normalize"], "count"),
            "qstate.normalize.ms": ms({"qstate.normalize"}),
            "qstate.normalize.unit_input_ratio": ratio(c["normalize.unit_input"], calls["qstate.normalize"]),
            "qstate.normalize.deferred_ratio": ratio(c["normalize.deferred"], calls["qstate.normalize"]),
            "qstate.nonzero_term_ratio": ratio(c["nonzero_in"], c["terms_in"]),
            "qstate.parse.ms": ms({"qstate.parse"}),
            "qstate.render.ms": ms({"qstate.render"}),
            "qstate.narrow.ms": ms({"qstate.narrow"}),
        }
        for g in GATE_NAMES:
            out[f"gates.{g}.calls"] = (calls[f"gates.{g}"], "count")
            out[f"gates.{g}.ms"] = ms({f"gates.{g}"})
        out["gates.ns_per_term"] = ((gate_ns / c["terms_in"]) if c["terms_in"] else 0.0, "ns")
        out.update({
            "interpreter.runs": (calls["interpreter.run"], "count"),
            "interpreter.self_ms": (self.self_ns["interpreter.run"] / 1e6, "ms"),
            "interpreter.draws": (c["interpreter.draws"], "count"),
            "teleport.protocol.ms": ms({"teleport.protocol"}),
            "teleport.verify.ms": ms({"teleport.verify"}),
            "cli.self_ms": ((self.self_ns["cli.main"] + self.self_ns["cli.render"]) / 1e6, "ms"),
            "cli.parse_ms": ms({"interpreter.parse", "qstate.parse"}, under={"cli.main"}),
            "cli.render_ms": ms({"cli.render", "qstate.render"}, under={"cli.main"}),
            "cli.output_bytes": (cli_output_bytes, "bytes"),
        })
        return out

    def coverage(self) -> float:
        """Share of the cases' traced time that some qnet layer accounts for."""
        total = sum(s[6] for s in self.spans if s[1] == ROOT)
        layers = sum(ns for name, ns in self.self_ns.items() if name != ROOT)
        layers += sum(self.leaf_ns.values())
        return layers / total if total else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, case, _net in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "case": case,
                }) + "\n")
