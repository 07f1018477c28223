"""Spans around the public entry points of the osa package, and the per-layer
metrics computed from them.

The tracer never edits the package: `traced(tracer)` rebinds each entry point
in every loaded `osa` module that holds it (for example
`osa.sim.solve_single_channel`, `osa.cli.solve_multichannel`,
`osa.multichannel.build_reachable_states`) to a wrapper that records a span,
and restores the originals on exit.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from pathlib import Path

# Per-layer metric names, units and directions; BENCHMARK.json lists the same.
LAYER_METRICS = {
    "solver.calls": ("count", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.s": ("s", "lower"),
    "solver.ms_per_iteration": ("ms", "lower"),
    "solver.backup_ms": ("ms", "lower"),
    "multichannel.states": ("count", "lower"),
    "multichannel.iterations": ("count", "lower"),
    "multichannel.enumerate_s": ("s", "lower"),
    "multichannel.solve_s": ("s", "lower"),
    "multichannel.self_s": ("s", "lower"),
    "multichannel.lambda_summary_s": ("s", "lower"),
    "policy.extract_calls": ("count", "lower"),
    "policy.extract_s": ("s", "lower"),
    "policy.check_structure_s": ("s", "lower"),
    "policy.cap_bound": ("count", "lower"),
    "sim.episodes": ("count", "lower"),
    "sim.slots": ("count", "lower"),
    "sim.episode_s": ("s", "lower"),
    "sim.us_per_slot.descriptor": ("us", "lower"),
    "sim.us_per_slot.memoryless": ("us", "lower"),
    "sim.us_per_slot.threshold": ("us", "lower"),
    "sim.compare_pairs": ("count", "lower"),
    "sim.compare_s": ("s", "lower"),
    "learn.windows": ("count", "lower"),
    "learn.slots": ("count", "lower"),
    "learn.s": ("s", "lower"),
    "learn.us_per_slot": ("us", "lower"),
    "cli.commands": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """In-memory spans: name, start, end, parent id and per-span counts."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter() - self.t0

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "layers": layer_self_times(self.spans)}, fh)
            fh.write("\n")


def _duration(rec) -> float:
    return rec["end"] - rec["start"]


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += _duration(rec)
    return [_duration(rec) - child[rec["id"]] for rec in spans]


def layer_self_times(spans) -> dict:
    """Per layer (the span-name prefix): span count, self time, and the time
    of its outermost spans."""
    own = _self_times(spans)
    out = {}
    for rec in spans:
        layer = rec["name"].split(".")[0]
        row = out.setdefault(layer, {"spans": 0, "self_s": 0.0, "total_s": 0.0})
        row["spans"] += 1
        row["self_s"] += own[rec["id"]]
        parent = rec["parent"]
        if parent is None or not spans[parent]["name"].startswith(layer + "."):
            row["total_s"] += _duration(rec)
    return out


# ---------------------------------------------------------------------------
# Wrapping the package's entry points


def _policy_kind(osa, policy) -> str:
    if isinstance(policy, osa.MultichannelValueFunction):
        return "descriptor"
    if isinstance(policy, osa.MemorylessPolicy):
        return "memoryless"
    if isinstance(policy, osa.ThresholdPolicy):
        return "threshold"
    return "other"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _entry_points(osa, tracer):
    """(span name, original, hook) per wrapped entry point.  A hook runs after
    a successful call and records counts on the span."""

    def solve_counts(rec, args, kwargs, vf):
        rec["counts"]["iterations"] = vf.iterations
        # One extra Bellman backup on the converged table, timed on its own
        # span so that it stays out of the solver's and the caller's time.
        with tracer.span("trace.backup_probe"):
            osa.solver.bellman_backup(vf)

    def multichannel_counts(rec, args, kwargs, mvf):
        rec["counts"]["states"] = len(mvf.states)
        rec["counts"]["iterations"] = mvf.iterations

    def episode_counts(rec, args, kwargs, result):
        cfg = _arg(args, kwargs, 0, "cfg")
        rec["counts"]["slots"] = result[0].slots
        rec["counts"]["kind"] = _policy_kind(osa, cfg.policy)

    def learn_counts(rec, args, kwargs, result):
        cfg = _arg(args, kwargs, 0, "cfg")
        rec["counts"]["windows"] = len(result.trace)
        rec["counts"]["slots"] = len(result.trace) * cfg.nbslot

    def cli_counts(rec, args, kwargs, rc):
        argv = list(_arg(args, kwargs, 0, "argv"))
        rec["counts"]["command"] = argv[0]
        rec["counts"]["exit_code"] = rc
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            rec["counts"]["bytes"] = _bytes_under(out) if out.is_dir() else 0

    return [
        ("cli.command", osa.cli.main, cli_counts),
        ("solver.solve", osa.solver.solve_single_channel, solve_counts),
        ("multichannel.solve", osa.multichannel.solve_multichannel, multichannel_counts),
        ("multichannel.enumerate", osa.multichannel.build_reachable_states, None),
        ("policy.extract", osa.policy.extract_thresholds, None),
        ("policy.check_structure", osa.policy.check_structure, None),
        ("sim.episode", osa.sim.run_episode, episode_counts),
        ("sim.compare", osa.sim.compare_with_memoryless, None),
        ("learn.run", osa.learn.run_learning, learn_counts),
    ]


def _wrap(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every entry point in every loaded osa module for the duration."""
    import osa

    wrappers = {}
    for name, fn, hook in _entry_points(osa, tracer):
        wrappers[id(fn)] = _wrap(tracer, name, fn, hook)
    patched = []
    modules = [m for key, m in sys.modules.items() if key == "osa" or key.startswith("osa.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    cls = osa.MultichannelValueFunction
    original = cls.lambda_summary
    patched.append((cls, "lambda_summary", original))
    cls.lambda_summary = _wrap(tracer, "multichannel.lambda_summary", original, None)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans, cap_bound: int, overhead_s: float) -> dict:
    """Every metric of LAYER_METRICS from one traced set-up plus one pass.

    A ratio whose base is zero (a layer the workload never enters) reads 0.
    """
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
    own = _self_times(spans)

    def recs(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_duration(r) for r in recs(name))

    def count(name, key):
        return sum(r["counts"].get(key, 0) for r in recs(name))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def under(rec, name):
        parent = rec["parent"]
        while parent is not None:
            if spans[parent]["name"] == name:
                return True
            parent = spans[parent]["parent"]
        return False

    solver_s = total("solver.solve")
    solver_iters = count("solver.solve", "iterations")
    probes = [_duration(r) for r in recs("trace.backup_probe")]
    episodes = recs("sim.episode")
    learn_slots = count("learn.run", "slots")
    m = {
        "solver.calls": len(recs("solver.solve")),
        "solver.iterations": solver_iters,
        "solver.s": solver_s,
        "solver.ms_per_iteration": ratio(solver_s, solver_iters, 1e3),
        "solver.backup_ms": 1e3 * statistics.median(probes) if probes else 0.0,
        "multichannel.states": count("multichannel.solve", "states"),
        "multichannel.iterations": count("multichannel.solve", "iterations"),
        "multichannel.enumerate_s": total("multichannel.enumerate"),
        "multichannel.solve_s": total("multichannel.solve"),
        "multichannel.self_s": sum(own[r["id"]] for r in recs("multichannel.solve")),
        "multichannel.lambda_summary_s": total("multichannel.lambda_summary"),
        "policy.extract_calls": len(recs("policy.extract")),
        "policy.extract_s": total("policy.extract"),
        "policy.check_structure_s": total("policy.check_structure"),
        "policy.cap_bound": cap_bound,
        "sim.episodes": len(episodes),
        "sim.slots": count("sim.episode", "slots"),
        "sim.episode_s": total("sim.episode"),
        "sim.compare_pairs": sum(1 for r in recs("solver.solve") if under(r, "sim.compare")),
        "sim.compare_s": total("sim.compare"),
        "learn.windows": count("learn.run", "windows"),
        "learn.slots": learn_slots,
        "learn.s": total("learn.run"),
        "learn.us_per_slot": ratio(total("learn.run"), learn_slots, 1e6),
        "cli.commands": len(recs("cli.command")),
        "cli.self_s": sum(own[r["id"]] for r in recs("cli.command")),
        "cli.bytes_written": count("cli.command", "bytes"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
    for kind in ("descriptor", "memoryless", "threshold"):
        mine = [r for r in episodes if r["counts"].get("kind") == kind]
        m[f"sim.us_per_slot.{kind}"] = ratio(
            sum(_duration(r) for r in mine), sum(r["counts"]["slots"] for r in mine), 1e6
        )
    return {name: m[name] for name in LAYER_METRICS}
