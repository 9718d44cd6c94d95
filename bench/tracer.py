"""Span tracing around the library's public functions, from outside the
library.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``qramsim`` module, not only the defining one: ``from .x import y``
binds ``y`` in the importer too (``teleport.twirled_state``,
``teleport.iterated_swap_test``, ``cli.run_protocol``). ``uninstall`` puts
the originals back. Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly because the library is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from workloads import SHIPPED_CONFIGS

# (module, attribute, span name); several attributes may share one name
TRACED = [
    ("twirlset", "twirled_state", None),             # named by its mode
    ("twirlset", "sample_twirl", "twirlset.sample_twirl"),
    ("twirlset", "all_gl_matrices", "twirlset.all_gl_matrices"),
    ("twirlset", "_all_gl_inverses", "twirlset.all_gl_matrices"),
    ("teleport", "run_protocol", "teleport.run_protocol"),
    ("teleport", "branch_multiplier", "teleport.branch_multiplier"),
    ("device", "noisy_resource_state", "device.noisy_resource_state"),
    ("device", "apply_encoding_noise", "device.apply_encoding_noise"),
    ("distill", "iterated_swap_test", "distill.iterated_swap_test"),
    ("distill", "qpca_simple", "distill.qpca_simple"),
    ("distill", "qpca_recursive", "distill.qpca_recursive"),
    ("qcore", "trace_distance", "qcore.trace_distance"),
    ("boolfn", "degree", "boolfn.degree"),
    ("boolfn", "update_rule", "boolfn.update_rule"),
    ("classical", "ur_naive", "classical.ur_naive"),
    ("classical", "ur_via_fwht", "classical.ur_via_fwht"),
    ("classical", "simulate_circuit", "classical.simulate_circuit"),
    ("classical", "fwht_via_ur", "classical.fwht_via_ur"),
    ("classical", "build_shallow_ur_circuit", "classical.build_shallow_ur_circuit"),
    ("cli", "main", "cli"),
]


def _twirl_span_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"twirlset.twirled_state_{mode}"


def _cli_config_name(argv) -> str:
    argv = list(argv or [])
    path = argv[argv.index("--config") + 1] if "--config" in argv else "unknown"
    return Path(path).stem


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op, phase)
        self._open: list[int] = []     # indices of open spans
        self._child: list[float] = []  # child time covered, per open span
        self.op = "setup"
        self.phase = "setup"
        self.stats: dict[tuple[str, str], list] = {}    # -> [calls, self_s]
        self.counters: dict[tuple[str, str], float] = {}
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- counting ----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _observe(self, name: str, result, args, kwargs, duration: float) -> None:
        if name == "twirlset.twirled_state_mc":
            self.count("twirlset.mc_samples", result.num_samples)
        elif name == "twirlset.twirled_state_exact":
            self.count("twirlset.exact_elements", result.num_samples)
        elif name == "teleport.run_protocol":
            self.count("teleport.rounds", len(result[1].rounds))
        elif name.startswith("distill."):
            self.count("distill.copies", result.copies_consumed)
            self.count("distill.attempts", 1)
            self.count("distill.successes", int(result.success))
            if name == "distill.qpca_recursive":
                self.count("distill.qpca_recursive.restarts",
                           result.extra.get("restarts", 0))
        elif name == "cli":
            self.count(f"cli.{_cli_config_name(args[0] if args else kwargs.get('argv'))}.s",
                       duration)

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name or _twirl_span_name(args, kwargs)
            parent = tracer._open[-1] if tracer._open else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._open.append(idx)
            tracer._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                child = tracer._child.pop()
                duration = end - start
                if tracer._child:
                    tracer._child[-1] += duration
                tracer.spans[idx] = (span, start, end, parent, tracer.op, tracer.phase)
                stat = tracer.stats.setdefault((tracer.phase, span), [0, 0.0])
                stat[0] += 1
                stat[1] += duration - child
            tracer._observe(span, result, args, kwargs, duration)
            return result

        return traced

    def attach(self, lib) -> None:
        """Wrap the traced functions of one import of the library."""
        self._wrappers = {}
        for module, attr, name in TRACED:
            fn = getattr(getattr(lib, module), attr)
            self._wrappers[id(fn)] = (fn, self._wrap(fn, name))

    def install(self) -> None:
        """Patch every binding of a traced function in the loaded modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qramsim" or mod_name.startswith("qramsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "phase": phase}) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, traced_ops: int, traced_s: float,
                      plain_ops: int, plain_s: float) -> dict:
        """Per-layer metrics: measured-phase figures per traced op, set-up
        figures (GL table, circuit build, CLI) as seconds of set-up, and the
        throughput of traced passes over that of untraced ones."""
        per_op = max(traced_ops, 1)

        def stat(name: str, phase: str = "measure"):
            return self.stats.get((phase, name), [0, 0.0])

        def counter(name: str, phase: str = "measure") -> float:
            return self.counters.get((phase, name), 0.0)

        out: dict[str, tuple[float, str]] = {}
        for name in ("twirlset.twirled_state_mc", "twirlset.twirled_state_exact",
                     "twirlset.sample_twirl", "teleport.run_protocol",
                     "device.noisy_resource_state", "device.apply_encoding_noise",
                     "distill.iterated_swap_test", "distill.qpca_simple",
                     "distill.qpca_recursive", "qcore.trace_distance",
                     "boolfn.degree", "boolfn.update_rule"):
            calls, self_s = stat(name)
            out[f"{name}.calls"] = (calls / per_op, "count/op")
            out[f"{name}.self_s"] = (self_s / per_op, "s/op")
        out["teleport.branch_multiplier.calls"] = (
            stat("teleport.branch_multiplier")[0] / per_op, "count/op")
        for name in ("classical.ur_naive", "classical.ur_via_fwht",
                     "classical.simulate_circuit", "classical.fwht_via_ur"):
            out[f"{name}.self_s"] = (stat(name)[1] / per_op, "s/op")
        for name in ("twirlset.mc_samples", "twirlset.exact_elements",
                     "teleport.rounds", "distill.copies",
                     "distill.qpca_recursive.restarts"):
            out[name] = (counter(name) / per_op, "count/op")
        attempts = counter("distill.attempts")
        out["distill.success_ratio"] = (
            counter("distill.successes") / attempts if attempts else 1.0, "ratio")
        out["twirlset.all_gl_matrices.self_s"] = (
            stat("twirlset.all_gl_matrices", "setup")[1], "s")
        out["classical.build_shallow_ur_circuit.self_s"] = (
            stat("classical.build_shallow_ur_circuit", "setup")[1], "s")
        out["cli.self_s"] = (stat("cli", "setup")[1], "s")
        for config in SHIPPED_CONFIGS:
            out[f"cli.{config}.s"] = (counter(f"cli.{config}.s", "setup"), "s")
        out["trace.op_s"] = (traced_s / per_op, "s/op")
        out["trace.overhead_ratio"] = (
            (traced_ops / traced_s) / (plain_ops / plain_s), "ratio")
        return out
