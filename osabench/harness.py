"""Workloads, output checks and metrics of the osa benchmark.

A run is one workload in one process: set-up (repeated SETUP_REPEATS times
with tracing off), then passes over the workload's operations until the
requested seconds have elapsed.  The benchmark reaches the package only
through its public functions and `osa.cli.main`, and gives it only the inputs
generated from the workload seed.

Workloads, and why each was chosen:

* ``grid``: `osa solve` on one channel for (alpha, beta) = (0.15, 0.10),
  (0.85, 0.70) and (0.95, 0.05), each at `--lmax 50` on the 1001-point belief
  grid, then `osa compare --alpha 0.15 --beta 0.1 --ks 2,3,5,8 --lmax 15`.
  About two thirds of the time is `solve_single_channel`; the three solves
  span many relative-value iterations (677, 931) and few (59), and `compare`
  runs 4 x 28 serial solve-plus-episode pairs at a second grid size.  The
  multichannel and learning layers do no work here.
* ``descriptor``: `osa solve --scenario 1 --lmax 15` and `--scenario 2`, both
  N=4 (64,300 and 63,927 descriptor states).  Only the multichannel layer
  works.  Scenario 1 is bound by iterations (473), scenario 2 by enumeration
  and table build (45 iterations), so a change that takes fewer steps and one
  that makes each step cheaper show apart.
* ``slots``: set-up solves the scenario-1 descriptor policy (N=4, l_max 15)
  and the N=1 threshold policy for (0.15, 0.10).  The timed passes run
  `run_episode` with the descriptor policy, with `MemorylessPolicy(3)` and
  with the threshold policy, and `run_learning` with the default
  `LearnerConfig`, each about 0.3 M slots.  Nearly all timed work is the two
  slot loops, so solver changes move only its set-up; its long episodes use
  the simulator differently from `compare`'s many short ones.

End-to-end metrics (tracing off, every workload): `wall_s`, the sum over
the workload's ops of each op's median time across passes; `setup_s`, import
time plus the median of the set-ups; `peak_rss_mb`, `ru_maxrss` of the
process.  The full record of a run adds `timing.compare_s` (grid),
`timing.simulate_slots_per_s` and `timing.learn_slots_per_s` (slots) and
`failed_frac`; they stay out of BENCHMARK.json because each is zero or
undefined on some workload.

Which per-layer metric (traced run) should move which end-to-end metric:

* ``solver.*`` (calls, iterations, s, ms_per_iteration, backup_ms):
  `wall_s` and `compare_s` on grid, `setup_s` on slots.
* ``multichannel.*`` (states, iterations, enumerate_s, solve_s, self_s,
  lambda_summary_s): `wall_s` and `peak_rss_mb` on descriptor, `setup_s` on
  slots.
* ``policy.*`` (extract_calls, extract_s, check_structure_s, cap_bound):
  `compare_s` and so `wall_s` on grid.
* ``sim.*`` (episodes, slots, episode_s, us_per_slot.<policy>, compare_pairs,
  compare_s): `simulate_slots_per_s` and `wall_s` on slots, `compare_s` on
  grid.
* ``learn.*`` (windows, slots, s, us_per_slot): `learn_slots_per_s` and
  `wall_s` on slots.
* ``cli.*`` (commands, self_s, bytes_written): `wall_s` on grid and
  descriptor; `cli.self_s` is argument parsing plus CSV and manifest writes.
* ``trace.overhead_s`` is the traced pass's `wall_s` (without the backup
  probes) minus the untraced `wall_s` of the same run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import osa
import osa.cli
import osa.learn
import osa.policy

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
STATE_DIR = ROOT / ".osabench"

DEFAULT_SEED = 0
GAIN_TOL = 1e-9
SETUP_REPEATS = 3

# Sizes of each workload.  "tiny" is the warm-up size and the size the
# harness test runs.
SIZES = {
    "grid": {
        "full": {
            "pairs": [[0.15, 0.10], [0.85, 0.70], [0.95, 0.05]],
            "lmax": 50,
            "compare": {"alpha": 0.15, "beta": 0.1, "ks": "2,3,5,8", "lmax": 15, "packets": 3000},
        },
        "tiny": {
            "pairs": [[0.15, 0.10], [0.85, 0.70], [0.95, 0.05]],
            "lmax": 4,
            "compare": {"alpha": 0.15, "beta": 0.1, "ks": "2", "lmax": 4, "packets": 200},
        },
    },
    "descriptor": {
        "full": {"scenarios": [1, 2], "lmax": 15, "ktrunc": 20},
        "tiny": {"scenarios": [1, 2], "lmax": 4, "ktrunc": 5},
    },
    "slots": {
        # Packet counts give about 0.3 M slots per episode (average delays
        # 12.6, 2.67 and 26.5 slots); 3,000 learner windows of 100 slots.
        "full": {
            "scenario": 1,
            "lmax": 15,
            "ktrunc": 20,
            "threshold_lmax": 50,
            "memoryless_k": 3,
            "packets": {"descriptor": 24000, "memoryless": 112000, "threshold": 11300},
            "learn_iterations": 3000,
        },
        "tiny": {
            "scenario": 1,
            "lmax": 4,
            "ktrunc": 5,
            "threshold_lmax": 4,
            "memoryless_k": 3,
            "packets": {"descriptor": 100, "memoryless": 100, "threshold": 100},
            "learn_iterations": 20,
        },
    },
}


def make_inputs(seed: int) -> dict:
    """The generated inputs: simulator and learner seeds drawn from the
    workload seed.  Episodes share one seed (common random numbers)."""
    sim_seed, learn_seed = np.random.SeedSequence(seed).generate_state(2)
    return {"sim_seed": int(sim_seed), "learn_seed": int(learn_seed)}


# ---------------------------------------------------------------------------
# Operations and their output checks


@dataclass
class Op:
    """One call into the package.  `run` is timed; `check` is not, and
    returns (fingerprint, invariant problems, info)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    kind: str = "op"
    seed_dependent: bool = False
    prepare: Callable[[], None] | None = None


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def digest_actions(actions) -> str:
    """Digest of a (belief point x delay) action table."""
    arr = np.asarray(actions, dtype=np.int8)
    return sha256_bytes(repr(arr.shape).encode() + arr.tobytes())


def digest_descriptor_actions(mvf) -> str:
    """Digest of the descriptor action table in state order, so it does not
    depend on the order the states were enumerated in."""
    table = sorted(zip(mvf.states, mvf.actions.tolist()))
    return sha256_bytes(repr(table).encode())


def check_episode_metrics(m) -> list:
    problems = []
    # The delay/throughput identity in exact form: every slot belongs to one
    # delivered packet, so total delay equals slots and avg_delay is exactly
    # slots / packets.  osa.little_check computes |avg_delay - 1/throughput|,
    # whose double rounding of 1/(packets/slots) can leave a few ulps.
    if m.avg_delay != m.slots / m.packets:
        problems.append(
            f"little identity: avg_delay={m.avg_delay!r} != slots/packets="
            f"{m.slots / m.packets!r} (little_check={osa.little_check(m)!r})"
        )
    if m.waits + m.senses != m.slots:
        problems.append(f"waits {m.waits} + senses {m.senses} != slots {m.slots}")
    if m.primary_tx + m.dedicated_tx != m.packets:
        problems.append(
            f"primary {m.primary_tx} + dedicated {m.dedicated_tx} != packets {m.packets}"
        )
    return problems


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    out: Path


def cli_op(name, argv, out: Path, fingerprint, kind="cli", seed_dependent=False) -> Op:
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = osa.cli.main([*argv, "--out", str(out)])
        return CliResult(code, stdout.getvalue(), stderr.getvalue(), out)

    def check(res: CliResult):
        if res.code != 0:
            return {}, [f"exit code {res.code}: {res.stderr.strip()}"], {}
        return fingerprint(res)

    return Op(name, run, check, kind, seed_dependent, lambda: shutil.rmtree(out, ignore_errors=True))


def fingerprint_grid_solve(res: CliResult):
    meta = json.loads((res.out / "value_function_meta.json").read_text())
    with open(res.out / "value_function.csv") as fh:
        fh.readline()
        actions = [int(line.rsplit(",", 1)[1]) for line in fh]
    table = np.array(actions).reshape(meta["l_max"], meta["grid_points"]).T
    problems = []
    if not math.isfinite(meta["gain"]):
        problems.append(f"gain {meta['gain']!r} is not finite")
    if not set(np.unique(table).tolist()) <= {0, 1, 2}:
        problems.append("action table holds an unknown action")
    fp = {
        "gain": meta["gain"],
        "actions": digest_actions(table),
        "policy_csv": sha256_file(res.out / "policy.csv"),
    }
    return fp, problems, {}


def fingerprint_compare(ks):
    def fingerprint(res: CliResult):
        with open(res.out / "compare.csv") as fh:
            fh.readline()
            rows = [line.strip().split(",") for line in fh]
        problems = []
        if [int(r[0]) for r in rows] != sorted(ks):
            problems.append(f"compare rows for k={[r[0] for r in rows]}, expected {sorted(ks)}")
        for r in rows:
            _, _, d_mp, d_opt, cost_mp, cost_opt, red = (float(x) for x in r)
            if min(d_mp, d_opt) < 1.0:
                problems.append(f"k={r[0]}: matched delay below one slot")
            if red != 100.0 * (cost_mp - cost_opt) / cost_mp:
                problems.append(f"k={r[0]}: reduction_pct disagrees with the cost columns")
        return {"compare_csv": (res.out / "compare.csv").read_text()}, problems, {}

    return fingerprint


def fingerprint_descriptor_solve(lmax):
    def fingerprint(res: CliResult):
        info = {}
        for line in res.stdout.splitlines():
            key, sep, val = line.strip().partition(": ")
            if sep:
                info[key] = val
        gain, states = float(info["gain"]), int(info["states"])
        problems = []
        if not math.isfinite(gain):
            problems.append(f"gain {gain!r} is not finite")
        rows = (res.out / "policy.csv").read_text().splitlines()[1:]
        if len(rows) != lmax:
            problems.append(f"policy.csv has {len(rows)} delays, expected {lmax}")
        fp = {"gain": gain, "states": states, "policy_csv": sha256_file(res.out / "policy.csv")}
        return fp, problems, {}

    return fingerprint


def grid_ops(p, ctx, inputs, work: Path) -> list:
    ops = []
    for a, b in p["pairs"]:
        name = f"solve-a{a}-b{b}"
        argv = ["solve", "--alpha", str(a), "--beta", str(b), "--lmax", str(p["lmax"])]
        ops.append(cli_op(name, argv, work / name, fingerprint_grid_solve))
    c = p["compare"]
    argv = [
        "compare", "--alpha", str(c["alpha"]), "--beta", str(c["beta"]), "--ks", c["ks"],
        "--lmax", str(c["lmax"]), "--packets", str(c["packets"]),
        "--seed", str(inputs["sim_seed"]),
    ]
    ks = [int(k) for k in c["ks"].split(",")]
    ops.append(
        cli_op("compare", argv, work / "compare", fingerprint_compare(ks), "compare", True)
    )
    return ops


def descriptor_ops(p, ctx, inputs, work: Path) -> list:
    ops = []
    for s in p["scenarios"]:
        name = f"solve-scenario{s}"
        argv = ["solve", "--scenario", str(s), "--lmax", str(p["lmax"]), "--ktrunc", str(p["ktrunc"])]
        ops.append(cli_op(name, argv, work / name, fingerprint_descriptor_solve(p["lmax"])))
    return ops


def slots_setup(p, inputs, work: Path) -> list:
    sc = osa.SCENARIOS[p["scenario"]]

    def solve_descriptor():
        return osa.solve_multichannel(
            sc.n_channels, sc.channel, sc.rewards, k_trunc=p["ktrunc"], l_max=p["lmax"]
        )

    def check_descriptor(mvf):
        problems = [] if math.isfinite(mvf.gain) else [f"gain {mvf.gain!r} is not finite"]
        fp = {
            "gain": mvf.gain,
            "states": len(mvf.states),
            "actions": digest_descriptor_actions(mvf),
        }
        return fp, problems, {}

    def solve_threshold():
        vf = osa.solve_single_channel(sc.channel, sc.rewards, l_max=p["threshold_lmax"])
        return vf, osa.extract_thresholds(vf)

    def check_threshold(out):
        vf, tp = out
        path = work / "threshold_policy.csv"
        work.mkdir(parents=True, exist_ok=True)
        tp.to_csv(path)
        problems = [] if math.isfinite(vf.gain) else [f"gain {vf.gain!r} is not finite"]
        fp = {"gain": vf.gain, "actions": digest_actions(vf.actions), "policy_csv": sha256_file(path)}
        return fp, problems, {}

    return [
        Op("setup-descriptor", solve_descriptor, check_descriptor, "solve"),
        Op("setup-threshold", solve_threshold, check_threshold, "solve"),
    ]


def slots_ops(p, ctx, inputs, work: Path) -> list:
    sc = osa.SCENARIOS[p["scenario"]]
    mvf = ctx["setup-descriptor"]
    _, tp = ctx["setup-threshold"]
    runs = [
        ("descriptor", mvf, sc.channels(), mvf.l_max),
        ("memoryless", osa.MemorylessPolicy(p["memoryless_k"]), sc.channels(), mvf.l_max),
        ("threshold", tp, [sc.channel], tp.l_max),
    ]
    ops = []
    for kind, policy, channels, l_max in runs:
        cfg = osa.SimConfig(
            channels=channels,
            rewards=sc.rewards,
            policy=policy,
            num_packets=p["packets"][kind],
            seed=inputs["sim_seed"],
            l_max=l_max,
            k_trunc=mvf.space.k_trunc,
        )
        ops.append(Op(f"episode-{kind}", lambda cfg=cfg: osa.run_episode(cfg),
                      check_episode, "episode", True))

    iterations = p["learn_iterations"]
    cfg = osa.LearnerConfig()

    def learn():
        return osa.run_learning(
            cfg, sc.channels(), sc.rewards, iterations=iterations, seed=inputs["learn_seed"]
        )

    def check_learn(res):
        path = work / "learn_trace.csv"
        work.mkdir(parents=True, exist_ok=True)
        osa.learn.write_learn_trace_csv(res.trace, path)
        problems = []
        if [row.iteration for row in res.trace] != list(range(1, iterations + 1)):
            problems.append("learn trace does not hold one row per iteration")
        if not all(0 <= row.policy_id < len(res.candidates) for row in res.trace):
            problems.append("learn trace names a policy outside the candidate set")
        if res.candidates[res.learned_policy_id] is not res.learned_policy:
            problems.append("learned policy is not the candidate its id names")
        fp = {"trace_csv": sha256_file(path), "learned_policy_id": res.learned_policy_id}
        return fp, problems, {"slots": len(res.trace) * cfg.nbslot}

    ops.append(Op("learn", learn, check_learn, "learn", True))
    return ops


def check_episode(out):
    m, _trace = out
    fp = {"metrics": repr(dataclasses.astuple(m))}
    return fp, check_episode_metrics(m), {"slots": m.slots}


@dataclass
class Workload:
    setup: Callable  # (params, inputs, work) -> list of set-up ops
    ops: Callable  # (params, set-up outputs, inputs, work) -> list of timed ops


WORKLOADS = {
    "grid": Workload(lambda p, inputs, work: [], grid_ops),
    "descriptor": Workload(lambda p, inputs, work: [], descriptor_ops),
    "slots": Workload(slots_setup, slots_ops),
}


# ---------------------------------------------------------------------------
# Running operations


def compare_reference(fp: dict, ref: dict | None) -> list:
    if ref is None:
        return ["no reference output recorded"]
    problems = []
    for key, want in ref.items():
        got = fp.get(key)
        if key == "gain":
            ok = got is not None and abs(got - want) <= GAIN_TOL
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


class Runner:
    """Runs operations, times them, checks their outputs and counts failures."""

    def __init__(self, seed: int, refs: dict | None):
        self.seed = seed
        self.refs = refs
        self.records = []

    def run(self, op: Op, phase: str):
        if op.prepare is not None:
            op.prepare()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            seconds = time.perf_counter() - t0
            problems, fp, info, out = [f"raised {exc!r}"], {}, {}, None
        else:
            seconds = time.perf_counter() - t0
            try:
                fp, problems, info = op.check(out)
            except Exception as exc:  # an output the check cannot read fails the op
                fp, problems, info = {}, [f"check raised {exc!r}"], {}
            if self.refs is not None and phase != "warmup":
                if not op.seed_dependent or self.seed == DEFAULT_SEED:
                    problems = problems + compare_reference(fp, self.refs.get(op.name))
        self.records.append({
            "phase": phase, "name": op.name, "kind": op.kind, "seconds": seconds,
            "ok": not problems, "problems": problems, "fingerprint": fp, **info,
        })
        return out

    def run_all(self, ops, phase: str) -> dict:
        return {op.name: self.run(op, phase) for op in ops}

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


class WarningLog:
    """Collects warnings for the whole run, the same way traced or not, so
    that DelayCapBound is counted instead of printed."""

    def __enter__(self):
        self._cm = warnings.catch_warnings(record=True)
        self.caught = self._cm.__enter__()
        warnings.simplefilter("always", osa.policy.DelayCapBound)
        return self

    def __exit__(self, *exc):
        self._cm.__exit__(*exc)
        for w in self.caught:
            if not issubclass(w.category, osa.policy.DelayCapBound):
                print(warnings.formatwarning(w.message, w.category, w.filename, w.lineno),
                      file=sys.stderr, end="")

    def cap_bound(self, since: int = 0) -> int:
        return sum(issubclass(w.category, osa.policy.DelayCapBound) for w in self.caught[since:])


def set_up(workload: Workload, name, size, seed, runner, work, warm_up=True) -> tuple:
    """One set-up: inputs, the workload's own set-up ops and a warm-up pass at
    the tiny size.  Returns (set-up outputs, inputs, seconds)."""
    t0 = time.perf_counter()
    inputs = make_inputs(seed)
    inputs_s = time.perf_counter() - t0
    start = len(runner.records)
    p = SIZES[name][size]
    ctx = runner.run_all(workload.setup(p, inputs, work), "setup")
    if any(out is None for out in ctx.values()):
        raise RuntimeError(f"set-up of {name} failed: {runner.records[start:]}")
    if warm_up:
        runner.run_all(workload.ops(SIZES[name]["tiny"], ctx, inputs, work / "warmup"), "warmup")
    seconds = inputs_s + sum(r["seconds"] for r in runner.records[start:])
    return ctx, inputs, seconds


def timed_passes(workload, name, size, ctx, inputs, runner, work, seconds, max_passes=None):
    """Passes over the workload's ops until `seconds` have elapsed (at least
    one).  Returns the op records of each pass."""
    p = SIZES[name][size]
    passes = []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0 < seconds and len(passes) != max_passes):
        start = len(runner.records)
        runner.run_all(workload.ops(p, ctx, inputs, work), "timed")
        passes.append(runner.records[start:])
    return passes


def summarize(passes) -> dict:
    """Median time of each op over the passes, and the timed-phase figures
    built from those medians."""
    by_op = {}
    for records in passes:
        for r in records:
            by_op.setdefault(r["name"], []).append(r)
    median = {op: statistics.median(r["seconds"] for r in recs) for op, recs in by_op.items()}

    def seconds(kind):
        return sum(median[op] for op, recs in by_op.items() if recs[0]["kind"] == kind)

    def rate(kind):
        slots = sum(recs[0].get("slots", 0) for recs in by_op.values() if recs[0]["kind"] == kind)
        return slots / seconds(kind) if seconds(kind) else 0.0

    return {
        "passes": len(passes),
        "op_median_s": median,
        "wall_s": sum(median.values()),
        "compare_s": seconds("compare"),
        "simulate_slots_per_s": rate("episode"),
        "learn_slots_per_s": rate("learn"),
    }


# ---------------------------------------------------------------------------
# A whole run


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def source_version() -> dict:
    """The commit when the checkout is a git repository, and always a digest
    of the package sources."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "osa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, size="full", refs=None, import_s=0.0):
    """Runs one workload and returns (result line, full record, tracer)."""
    if refs is None:
        refs = load_references()
    workload = WORKLOADS[name]
    work = STATE_DIR / f"work-{os.getpid()}" / name
    runner = Runner(seed, refs[size][name])
    tracer = None
    try:
        with WarningLog() as wlog:
            repeats = 1 if trace else SETUP_REPEATS
            setups = []
            for _ in range(repeats):
                ctx = None  # free the previous policies before solving again
                ctx, inputs, secs = set_up(workload, name, size, seed, runner, work)
                setups.append(secs)
            passes = timed_passes(workload, name, size, ctx, inputs, runner, work, seconds)
            untraced_cap_bound = wlog.cap_bound()
            if trace:
                mark = len(wlog.caught)
                tracer = spans.Tracer()
                ctx = None
                with spans.traced(tracer):
                    ctx, inputs, _ = set_up(workload, name, size, seed, runner, work, False)
                    pass_start = len(tracer.spans)
                    traced = summarize(timed_passes(
                        workload, name, size, ctx, inputs, runner, work, 0, max_passes=1
                    ))
                traced_cap_bound = wlog.cap_bound(mark)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)

    timing = summarize(passes)
    wall = timing["wall_s"]
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = len(runner.records)
    failed = runner.failed
    record = {
        "workload": name,
        "size": size,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "params": SIZES[name][size],
        "inputs": inputs,
        "machine": machine_info(),
        "source": source_version(),
        "setup_repeats": len(setups),
        "setup_s_each": setups,
        "import_s": import_s,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "timing": timing,
        "cap_bound": untraced_cap_bound,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [r for r in runner.records if not r["ok"]],
        "ops": [{k: r[k] for k in ("phase", "name", "seconds", "ok")} for r in runner.records],
    }
    if trace:
        probe_s = sum(
            s["end"] - s["start"]
            for s in tracer.spans[pass_start:]
            if s["name"] == "trace.backup_probe"
        )
        overhead = traced["wall_s"] - probe_s - wall
        layers = spans.layer_metrics(tracer.spans, traced_cap_bound, overhead)
        metrics = {k: {"value": v, "unit": spans.LAYER_METRICS[k][0]} for k, v in layers.items()}
        record["per_layer"] = layers
        record["layer_self_times"] = spans.layer_self_times(tracer.spans)
        record["trace_overhead"] = {
            "untraced_wall_s": wall, "traced_wall_s": traced["wall_s"] - probe_s,
            "probe_s": probe_s, "overhead_s": overhead,
        }
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record, tracer


def write_record(record, tracer) -> Path:
    out = STATE_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    path = out / f"{stem}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.json")
    return path


def record_references() -> dict:
    """Fingerprints of every checked op at the default seed, both sizes."""
    refs = {}
    for size in ("full", "tiny"):
        refs[size] = {}
        for name, workload in WORKLOADS.items():
            runner = Runner(DEFAULT_SEED, None)
            work = STATE_DIR / f"work-{os.getpid()}" / name
            try:
                with WarningLog():
                    ctx, inputs, _ = set_up(workload, name, size, DEFAULT_SEED, runner, work)
                    timed_passes(workload, name, size, ctx, inputs, runner, work, 0, max_passes=1)
            finally:
                shutil.rmtree(work.parent, ignore_errors=True)
            if runner.failed:
                raise RuntimeError(f"{size} {name}: invariant failures {runner.records}")
            refs[size][name] = {
                r["name"]: r["fingerprint"] for r in runner.records if r["phase"] != "warmup"
            }
    return refs
