"""Experiment driver: solve, simulate, sweep, compare and learn commands with
scenario presets, manifests and reproducible CSV outputs.

A model is a preset (`--scenario`) or a channel (`--alpha` and `--beta`, one
channel unless `--n` says otherwise) with every model flag given applied over
it; prices not given keep the `Scenario` defaults.  Each command takes only
the flags it reads, so any other flag is a usage error.  Every command writes
a JSON manifest holding the resolved run (the model that ran plus the
command's own options, output paths absolute) and the produced file list;
`osa rerun --manifest FILE` replays the manifest through the same parser and
reproduces the outputs byte for byte.  A command computes everything before
it creates `--out`, so only a run that exits 0 leaves outputs; the inputs are
checked by the library, and `main` reports a ValueError or OSError as a usage
error.  Exit codes: 0 success, 1 usage error, 2 solver failure, 3 simulation
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, replace
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
from .learn import LearnerConfig, LearnTraceRow, run_learning
from .multichannel import DEFAULT_K_TRUNC, solve_multichannel
from .policy import MemorylessPolicy, ThresholdPolicy, check_structure, extract_thresholds
from .scenarios import SCENARIOS, Scenario
from .sim import (
    DEFAULT_MATCH_TOL,
    DEFAULT_PACKETS,
    CompareRow,
    SimConfig,
    SweepRow,
    TraceRow,
    _compile,
    _solve,
    compare_with_memoryless,
    little_check,
    run_episode,
    sweep_gamma,
    write_rows,
)
from .solver import DEFAULT_L_MAX, DEFAULT_TOL, Action, check_count, check_tol, solve_single_channel

USAGE_ERROR, SOLVER_ERROR, SIM_ERROR = 1, 2, 3
SOLVER_FAILURES = (NoConvergence, StateSpaceTooLarge, DegenerateChain, NotThreshold)
SIM_FAILURES = (DelayOverflow, TargetUnreachable)

# The model flags write to the Scenario field of the same name and default to
# None, meaning "keep the preset's (or the Scenario default) value".
MODEL_FIELDS = [f.name for f in fields(Scenario) if f.name != "name"]
FLAGS = {
    "--scenario": {"type": int, "choices": sorted(SCENARIOS)},
    "--alpha": {"type": float},
    "--beta": {"type": float},
    "--n": {"dest": "n_channels", "type": int, "help": "number of i.i.d. channels"},
    "--phi": {"type": float},
    "--cs": {"dest": "c_s", "type": float},
    "--pp": {"dest": "p_p", "type": float},
    "--p3g": {"dest": "p_3g", "type": float},
    "--gamma": {"type": float},
    "--tol": {"type": float, "default": DEFAULT_TOL},
    "--lmax": {"type": int, "default": DEFAULT_L_MAX},
    "--ktrunc": {"type": int, "default": DEFAULT_K_TRUNC},
    "--seed": {"type": int, "default": 0},
    "--packets": {"type": int, "default": DEFAULT_PACKETS},
}
MODEL = ["--scenario", "--alpha", "--beta", "--n", "--phi", "--cs", "--pp", "--p3g"]
EPISODES = ["--tol", "--lmax", "--ktrunc", "--seed", "--packets"]
COMMAND_FLAGS = {
    "solve": ("solve an instance and export value/policy tables",
              MODEL + ["--gamma", "--tol", "--lmax", "--ktrunc"]),
    "simulate": ("run one slot-level episode", MODEL + ["--gamma"] + EPISODES),
    "sweep": ("solve and simulate across delay-penalty values", MODEL + EPISODES),
    "compare": ("energy comparison against memoryless baselines", MODEL + EPISODES),
    "learn": ("run the online learning algorithm", MODEL + ["--gamma", "--lmax", "--seed"]),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process: main and rerun
    share it."""
    parser = _Parser(prog="osa", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, (helptext, flags) in COMMAND_FLAGS.items():
        sub = subs.add_parser(name, help=helptext, allow_abbrev=False)
        for flag in flags:
            sub.add_argument(flag, **FLAGS[flag])
        sub.add_argument("--out", type=Path, default=Path("out"))
        if name == "simulate":
            policy = sub.add_mutually_exclusive_group()
            policy.add_argument("--policy", type=Path, help="threshold policy CSV to run")
            policy.add_argument("--mp", type=int, help="memoryless baseline attempt limit")
            sub.add_argument("--trace", action="store_true", help="export the per-slot trace")
        if name == "sweep":
            sub.add_argument("--gammas", type=str, default="2,4,8,16,32,64,128,256,512,1024")
        if name == "compare":
            sub.add_argument("--ks", type=str, default="2,3,5,8")
            sub.add_argument("--match-tol", type=float, default=DEFAULT_MATCH_TOL)
        if name == "learn":
            sub.add_argument("--iterations", type=int, default=200)
            sub.add_argument("--nbslot", type=int, default=LearnerConfig.nbslot)
            sub.add_argument("--epsilon", type=float, default=LearnerConfig.epsilon)
            sub.add_argument("--eta", type=float, default=LearnerConfig.eta)
            sub.add_argument("--bins", type=int, default=LearnerConfig.m)

    rerun = subs.add_parser("rerun", help="re-execute a command from its manifest",
                            allow_abbrev=False)
    rerun.add_argument("--manifest", type=Path, required=True)
    return parser


def _scenario_of(args) -> Scenario:
    """The preset or the --alpha/--beta channel with every given model flag
    applied over it, named after the base with the fields that changed.
    Writes the resolved model back into args, so the manifest records what
    ran."""
    if args.scenario is not None:
        base = SCENARIOS[args.scenario]
    elif args.alpha is None or args.beta is None:
        raise UsageError("either --scenario or both --alpha and --beta are required")
    else:
        base = Scenario(f"custom-a{args.alpha}-b{args.beta}", 1, args.alpha, args.beta)
    model = [key for key in MODEL_FIELDS if key in args]
    scenario = replace(
        base, **{key: getattr(args, key) for key in model if getattr(args, key) is not None}
    )
    changed = [key for key in model if getattr(scenario, key) != getattr(base, key)]
    if changed:
        named = ", ".join(f"{key}={getattr(scenario, key)}" for key in changed)
        scenario = replace(scenario, name=f"{base.name} ({named})")
    for key in model:
        setattr(args, key, getattr(scenario, key))
    return scenario


def _outdir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _list(flag: str, text: str, kind, noun: str) -> list:
    """The comma-separated entries of a list flag, each converted by kind."""
    entries = []
    for entry in text.split(","):
        try:
            entries.append(kind(entry))
        except ValueError:
            raise ValueError(f"{flag}: {entry!r} is not {noun}") from None
    return entries


def _write_manifest(args, outputs: list) -> None:
    params = {
        key: str(val.resolve()) if isinstance(val, Path) else val
        for key, val in vars(args).items()
        if key != "command"
    }
    manifest = {
        "tool": "osa",
        "version": __version__,
        "command": args.command,
        "params": params,
        "outputs": [str(o.resolve()) for o in outputs],
    }
    _write_json(args.out / f"manifest_{args.command}.json", manifest)


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


def cmd_solve(args) -> int:
    scenario = _scenario_of(args)
    check_count("k_trunc", args.ktrunc, 1)  # read only when N > 1
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
        writers = {
            "value_function.csv": vf.to_csv,
            "value_function_meta.json": lambda path: _write_json(path, vf.metadata()),
            "structure_report.txt": lambda path: path.write_text(report.to_text()),
        }
    else:
        mvf = solve_multichannel(
            scenario.n_channels,
            scenario.channel,
            scenario.rewards,
            k_trunc=args.ktrunc,
            l_max=args.lmax,
            tol=args.tol,
        )
        lam, violations = mvf.lambda_summary()
        l_star = mvf.dedicated_switch_delay()
        tp = ThresholdPolicy(lam, l_star, mvf.l_max, cap_bound=l_star == mvf.l_max)
        info = {
            "gain": mvf.gain,
            "iterations": mvf.iterations,
            "l_star": tp.l_star,
            "cap_bound": tp.cap_bound,
            "states": len(mvf.actions),
            "k_trunc": mvf.space.k_trunc,
            "truncation_bound": mvf.space.truncation_bound,
            "summary_violations": violations,
        }
        writers = {}
    outdir = _outdir(args)
    outputs = []
    for name, write in {"policy.csv": tp.to_csv, **writers}.items():
        outputs.append(outdir / name)
        write(outputs[-1])
    _write_manifest(args, outputs)
    print(f"solved {scenario.name}: gain={info['gain']:.6g} l_star={info['l_star']}")
    for key, val in info.items():
        print(f"  {key}: {val}")
    return 0


def _check_cap(flag: str, value, policy: ThresholdPolicy, lmax: int) -> None:
    """Raise ValueError for a policy that waits or sense-waits at --lmax, as
    the slot kernel compiles it: its episode would hold a packet past the
    cap."""
    wait_below, sense = _compile(policy, lmax)
    if wait_below[lmax] > -math.inf or sense[lmax] == Action.SENSE_WAIT:
        raise ValueError(f"{flag} {value} waits or sense-waits at --lmax {lmax}")


def cmd_simulate(args) -> int:
    scenario = _scenario_of(args)
    check_tol(args.tol)  # read only when neither --mp nor --policy is given
    cfg = _episode_config(scenario, args, collect_trace=args.trace)
    if args.mp is not None:
        cfg.policy = MemorylessPolicy(args.mp)
        _check_cap("--mp", args.mp, cfg.policy, args.lmax)
    elif args.policy is not None:
        cfg.policy = ThresholdPolicy.from_csv(args.policy)
        _check_cap("--policy", args.policy, cfg.policy, args.lmax)
    else:
        cfg.policy = _solve(cfg, scenario.gamma, args.tol)
    metrics, trace = run_episode(cfg)
    outdir = _outdir(args)
    outputs = [outdir / "metrics.csv"]
    write_rows(outputs[0], SweepRow, [SweepRow.of(scenario.gamma, metrics)])
    if trace is not None:
        outputs.append(outdir / "trace.csv")
        write_rows(outputs[1], TraceRow, trace)
    _write_manifest(args, outputs)
    print(
        f"simulated {metrics.packets} packets over {metrics.slots} slots: "
        f"avg_delay={metrics.avg_delay:.4f} throughput={metrics.throughput:.4f} "
        f"energy/packet={metrics.energy_per_packet:.2f} "
        f"avg_reward={metrics.avg_reward:.4f} little_residual={little_check(metrics):.2e}"
    )
    return 0


def cmd_sweep(args) -> int:
    scenario = _scenario_of(args)
    gammas = _list("--gammas", args.gammas, float, "a number")
    rows = sweep_gamma(_episode_config(scenario, args), gammas, solver_tol=args.tol)
    path = _outdir(args) / "sweep.csv"
    write_rows(path, SweepRow, rows)
    _write_manifest(args, [path])
    for row in rows:
        print(
            f"gamma={row.gamma:<10g} avg_delay={row.avg_delay:<10.4f} "
            f"energy_per_slot={row.energy_per_slot:.4f}"
        )
    return 0


def cmd_compare(args) -> int:
    scenario = _scenario_of(args)
    cfg = _episode_config(scenario, args)
    ks = _list("--ks", args.ks, int, "an integer")
    for k in ks:
        _check_cap("--ks", k, MemorylessPolicy(k), args.lmax)
    rows = compare_with_memoryless(cfg, ks, tol=args.match_tol, solver_tol=args.tol)
    path = _outdir(args) / "compare.csv"
    write_rows(path, CompareRow, rows)
    _write_manifest(args, [path])
    for row in rows:
        print(
            f"k={row.k} gamma={row.gamma:.4g} matched_delay_mp={row.matched_delay_mp:.3f} "
            f"matched_delay_opt={row.matched_delay_opt:.3f} reduction={row.reduction_pct:.2f}%"
        )
    return 0


def cmd_learn(args) -> int:
    scenario = _scenario_of(args)
    cfg = LearnerConfig(
        m=args.bins,
        nbslot=args.nbslot,
        epsilon=args.epsilon,
        eta=args.eta,
        l_max=args.lmax,
    )
    result = run_learning(
        cfg, scenario.channels(), scenario.rewards, iterations=args.iterations, seed=args.seed
    )
    outdir = _outdir(args)
    trace_path = outdir / "learn_trace.csv"
    write_rows(trace_path, LearnTraceRow, result.trace)
    policy_path = outdir / "learned_policy.csv"
    result.learned_policy.to_csv(policy_path)
    _write_manifest(args, [trace_path, policy_path])
    print(
        f"learned policy id={result.learned_policy_id} "
        f"l_star={result.learned_policy.l_star} "
        f"level={float(result.learned_policy.lambda_star[0])!r} "
        f"alpha_hat={result.trace[-1].alpha_hat:.4f} beta_hat={result.trace[-1].beta_hat:.4f}"
    )
    return 0


def cmd_rerun(args) -> int:
    """Rebuild the argv of a manifest from its command's parser, so each
    recorded value passes the same types and checks as a typed flag."""
    manifest = json.loads(args.manifest.read_text())
    if not isinstance(manifest, dict) or not isinstance(manifest.get("params"), dict):
        raise UsageError(f"{args.manifest}: no params to rerun")
    command, params = manifest.get("command"), manifest["params"]
    if not isinstance(command, str) or command not in COMMAND_FLAGS:
        raise UsageError(f"{args.manifest}: cannot rerun command {command!r}")
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subs.choices[command]._actions if a.dest != "help"}
    unknown = sorted(set(params) - set(actions))
    if unknown:
        raise UsageError(f"{args.manifest}: {command} takes no {', '.join(unknown)}")
    argv = [command]
    for dest, action in actions.items():
        val = params.get(dest)
        if action.nargs == 0:
            if val is not None and not isinstance(val, bool):
                raise UsageError(f"{args.manifest}: {dest} must be true or false, got {val!r}")
            argv += [action.option_strings[0]] if val else []
        elif val is not None:
            argv += [action.option_strings[0], str(val)]
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
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
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
