"""Experiment driver: solve, simulate, sweep, compare and learn commands with
scenario presets, manifests and reproducible CSV outputs.

Every command writes a JSON manifest holding the full parameter set, the seed
and the produced file list; `osa rerun --manifest FILE` re-executes a manifest
and reproduces the outputs byte for byte.  Exit codes: 0 success, 1 usage
error, 2 solver failure, 3 simulation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import (
    DegenerateChain,
    DelayOverflow,
    NoConvergence,
    NotThreshold,
    OsaError,
    StateSpaceTooLarge,
    TargetUnreachable,
)
from .learn import LearnerConfig, run_learning, write_learn_trace_csv
from .multichannel import solve_multichannel
from .policy import MemorylessPolicy, ThresholdPolicy, check_structure, extract_thresholds
from .scenarios import SCENARIOS, Scenario
from .sim import (
    SimConfig,
    SweepRow,
    compare_rows_to_csv,
    compare_with_memoryless,
    little_check,
    run_episode,
    sweep_gamma,
    sweep_rows_to_csv,
    write_trace_csv,
)
from .solver import solve_single_channel

USAGE_ERROR, SOLVER_ERROR, SIM_ERROR = 1, 2, 3
SOLVER_FAILURES = (NoConvergence, StateSpaceTooLarge, DegenerateChain, NotThreshold)
SIM_FAILURES = (DelayOverflow, TargetUnreachable)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@contextmanager
def _inputs():
    """Report an invalid command input (a ValueError while building it) as a
    usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_common(sub):
    sub.add_argument("--scenario", type=int, choices=sorted(SCENARIOS))
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--n", type=int, default=1, help="number of i.i.d. channels")
    sub.add_argument("--phi", type=float, default=350.0)
    sub.add_argument("--cs", type=float, default=50.0)
    sub.add_argument("--pp", type=float, default=100.0)
    sub.add_argument("--p3g", type=float, default=800.0)
    sub.add_argument("--gamma", type=float, default=10.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--lmax", type=int, default=50)
    sub.add_argument("--ktrunc", type=int, default=20)
    sub.add_argument("--packets", type=int, default=3000)
    sub.add_argument("--out", type=Path, default=Path("out"))


def build_parser() -> _Parser:
    parser = _Parser(prog="osa", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("solve", "solve an instance and export value/policy tables"),
        ("simulate", "run one slot-level episode"),
        ("sweep", "solve and simulate across delay-penalty values"),
        ("compare", "energy comparison against memoryless baselines"),
        ("learn", "run the online learning algorithm"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common(sub)
        if name == "simulate":
            sub.add_argument("--policy", type=Path, help="threshold policy CSV to run")
            sub.add_argument("--mp", type=int, help="memoryless baseline attempt limit")
            sub.add_argument("--trace", action="store_true", help="export the per-slot trace")
        if name == "sweep":
            sub.add_argument("--gammas", type=str, default="2,4,8,16,32,64,128,256,512,1024")
        if name == "compare":
            sub.add_argument("--ks", type=str, default="2,3,5,8")
            sub.add_argument("--match-tol", type=float, default=0.25)
        if name == "learn":
            sub.add_argument("--iterations", type=int, default=200)
            sub.add_argument("--nbslot", type=int, default=100)
            sub.add_argument("--epsilon", type=float, default=0.1)
            sub.add_argument("--eta", type=float, default=0.5)
            sub.add_argument("--bins", type=int, default=10)

    rerun = subs.add_parser("rerun", help="re-execute a command from its manifest")
    rerun.add_argument("--manifest", type=Path, required=True)
    return parser


def _scenario_of(args) -> Scenario:
    with _inputs():
        if args.lmax < 2:
            raise ValueError("l_max must be at least 2")
        if args.ktrunc < 1:
            raise ValueError("k_trunc must be >= 1")
        if args.tol <= 0:
            raise ValueError("tol must be positive")
    if args.scenario is not None:
        base = SCENARIOS[args.scenario]
        return base
    if args.alpha is None or args.beta is None:
        raise UsageError("either --scenario or both --alpha and --beta are required")
    scenario = Scenario(
        name=f"custom-a{args.alpha}-b{args.beta}",
        n_channels=args.n,
        alpha=args.alpha,
        beta=args.beta,
        phi=args.phi,
        c_s=args.cs,
        p_p=args.pp,
        p_3g=args.p3g,
        gamma=args.gamma,
    )
    with _inputs():
        scenario.channel, scenario.rewards  # validate the model parameters
    return scenario


def _write_manifest(outdir: Path, command: str, params: dict, outputs: list) -> Path:
    manifest = {
        "tool": "osa",
        "version": __version__,
        "command": command,
        "params": params,
        "outputs": [str(o) for o in outputs],
    }
    path = outdir / f"manifest_{command}.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _episode_config(scenario: Scenario, args, **kw) -> SimConfig:
    """Episode settings of a simulate/sweep/compare command; the policy is
    set later."""
    return SimConfig(
        channels=scenario.channels(),
        rewards=scenario.rewards,
        policy=None,
        num_packets=args.packets,
        seed=args.seed,
        l_max=args.lmax,
        k_trunc=args.ktrunc,
        **kw,
    )


def _params_from_args(args, extra=()) -> dict:
    keys = [
        "scenario", "alpha", "beta", "n", "phi", "cs", "pp", "p3g", "gamma",
        "seed", "tol", "lmax", "ktrunc", "packets", "out",
    ]
    keys += list(extra)
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        out[key] = str(val) if isinstance(val, Path) else val
    return out


def _solve(scenario: Scenario, args):
    """Returns (policy-for-simulation, threshold table, structure report or
    None, value function or None, summary dict)."""
    if scenario.n_channels == 1:
        vf = solve_single_channel(
            scenario.channel, scenario.rewards, l_max=args.lmax, tol=args.tol
        )
        tp = extract_thresholds(vf)
        report = check_structure(vf)
        info = {
            "gain": vf.gain,
            "iterations": vf.iterations,
            "l_star": tp.l_star,
            "cap_bound": tp.cap_bound,
        }
        return tp, tp, report, vf, info
    mvf = solve_multichannel(
        scenario.n_channels,
        scenario.channel,
        scenario.rewards,
        k_trunc=args.ktrunc,
        l_max=args.lmax,
        tol=args.tol,
    )
    lam, violations = mvf.lambda_summary()
    tp = ThresholdPolicy(
        lambda_star=lam,
        l_star=mvf.dedicated_switch_delay(),
        l_max=mvf.l_max,
        channel=scenario.channel,
        rewards=scenario.rewards,
    )
    info = {
        "gain": mvf.gain,
        "iterations": mvf.iterations,
        "l_star": tp.l_star,
        "states": len(mvf.states),
        "summary_violations": violations,
    }
    return mvf, tp, None, None, info


def cmd_solve(args) -> int:
    scenario = _scenario_of(args)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    _, tp, report, vf, info = _solve(scenario, args)
    outputs = []
    policy_path = outdir / "policy.csv"
    tp.to_csv(policy_path)
    outputs.append(policy_path)
    if vf is not None:
        value_path = outdir / "value_function.csv"
        vf.to_csv(value_path)
        outputs.append(value_path)
        sidecar = outdir / "value_function_meta.json"
        with open(sidecar, "w") as fh:
            json.dump(vf.metadata(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(sidecar)
    if report is not None:
        report_path = outdir / "structure_report.txt"
        with open(report_path, "w") as fh:
            fh.write(report.to_text())
        outputs.append(report_path)
    _write_manifest(outdir, "solve", _params_from_args(args), outputs)
    print(f"solved {scenario.name}: gain={info['gain']:.6g} l_star={info['l_star']}")
    for key, val in info.items():
        print(f"  {key}: {val}")
    return 0


def cmd_simulate(args) -> int:
    scenario = _scenario_of(args)
    with _inputs():
        cfg = _episode_config(scenario, args, collect_trace=args.trace)
        if args.mp is not None:
            cfg.policy = MemorylessPolicy(args.mp)
        elif args.policy is not None:
            cfg.policy = ThresholdPolicy.from_csv(args.policy)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.policy is None:
        cfg.policy = _solve(scenario, args)[0]
    metrics, trace = run_episode(cfg)
    outputs = []
    metrics_path = outdir / "metrics.csv"
    sweep_rows_to_csv([SweepRow.of(scenario.gamma, metrics)], metrics_path)
    outputs.append(metrics_path)
    if trace is not None:
        trace_path = outdir / "trace.csv"
        write_trace_csv(trace, trace_path)
        outputs.append(trace_path)
    _write_manifest(
        outdir, "simulate", _params_from_args(args, ("mp", "policy", "trace")), outputs
    )
    print(
        f"simulated {metrics.packets} packets over {metrics.slots} slots: "
        f"avg_delay={metrics.avg_delay:.4f} throughput={metrics.throughput:.4f} "
        f"energy/packet={metrics.energy_per_packet:.2f} "
        f"avg_reward={metrics.avg_reward:.4f} little_residual={little_check(metrics):.2e}"
    )
    return 0


def cmd_sweep(args) -> int:
    scenario = _scenario_of(args)
    with _inputs():
        gammas = [float(x) for x in args.gammas.split(",") if x]
        if any(g <= 0 for g in gammas):
            raise ValueError("gamma values must be positive")
        cfg = _episode_config(scenario, args)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    rows = sweep_gamma(cfg, gammas, solver_tol=args.tol)
    path = outdir / "sweep.csv"
    sweep_rows_to_csv(rows, path)
    _write_manifest(outdir, "sweep", _params_from_args(args, ("gammas",)), [path])
    for row in rows:
        print(
            f"gamma={row.gamma:<10g} avg_delay={row.avg_delay:<10.4f} "
            f"energy_per_slot={row.energy_per_slot:.4f}"
        )
    return 0


def cmd_compare(args) -> int:
    scenario = _scenario_of(args)
    with _inputs():
        ks = [int(x) for x in args.ks.split(",") if x]
        if any(k < 1 for k in ks):
            raise ValueError(f"memoryless attempt limits must be >= 1, got {args.ks}")
        cfg = _episode_config(scenario, args)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    rows = compare_with_memoryless(cfg, ks, tol=args.match_tol, solver_tol=args.tol)
    path = outdir / "compare.csv"
    compare_rows_to_csv(rows, path)
    _write_manifest(outdir, "compare", _params_from_args(args, ("ks", "match_tol")), [path])
    for row in rows:
        print(
            f"k={row.k} gamma={row.gamma:.4g} matched_delay={row.matched_delay_mp:.3f} "
            f"reduction={row.reduction_pct:.2f}%"
        )
    return 0


def cmd_learn(args) -> int:
    scenario = _scenario_of(args)
    with _inputs():
        if args.iterations < 1:
            raise ValueError("iterations must be >= 1")
        cfg = LearnerConfig(
            m=args.bins,
            nbslot=args.nbslot,
            epsilon=args.epsilon,
            eta=args.eta,
            l_max=args.lmax,
        )
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_learning(
        cfg, scenario.channels(), scenario.rewards, iterations=args.iterations, seed=args.seed
    )
    trace_path = outdir / "learn_trace.csv"
    write_learn_trace_csv(result.trace, trace_path)
    policy_path = outdir / "learned_policy.csv"
    result.learned_policy.to_csv(policy_path)
    _write_manifest(
        outdir,
        "learn",
        _params_from_args(args, ("iterations", "nbslot", "epsilon", "eta", "bins")),
        [trace_path, policy_path],
    )
    print(
        f"learned policy id={result.learned_policy_id} "
        f"l_star={result.learned_policy.l_star} "
        f"level={float(result.learned_policy.lambda_star[0])!r} "
        f"alpha_hat={result.trace[-1].alpha_hat:.4f} beta_hat={result.trace[-1].beta_hat:.4f}"
    )
    return 0


def cmd_rerun(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    params = manifest["params"]
    argv = [manifest["command"]]
    skip = {"policy", "trace", "mp"}
    flags = {
        "match_tol": "--match-tol",
    }
    for key, val in params.items():
        if val is None or key in skip:
            continue
        if isinstance(val, bool):
            if val:
                argv.append(flags.get(key, f"--{key}"))
            continue
        argv.extend([flags.get(key, f"--{key}"), str(val)])
    if params.get("mp") is not None:
        argv.extend(["--mp", str(params["mp"])])
    if params.get("policy") is not None:
        argv.extend(["--policy", str(params["policy"])])
    if params.get("trace"):
        argv.append("--trace")
    return main(argv)


COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "learn": cmd_learn,
    "rerun": cmd_rerun,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SOLVER_FAILURES as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except SIM_FAILURES as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return SIM_ERROR
    except OsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
