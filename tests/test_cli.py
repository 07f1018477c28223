import argparse
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import act
from osa.cli import _check_cap, build_parser, main
from osa.learn import LearnerConfig, LearnTraceRow, run_learning
from osa.policy import MemorylessPolicy, ThresholdPolicy
from osa.scenarios import SCENARIOS
from osa.sim import SimConfig, SweepRow, _solve, run_episode, write_rows
from osa.solver import DEFAULT_TOL, Action

FAST_SOLVE = ["--tol", "1e-6", "--lmax", "20"]


def run(args):
    return main([str(a) for a in args])


def test_usage_error_exit_code(capsys):
    assert run(["solve"]) == 1  # neither scenario nor alpha/beta
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 0],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--packets", 0],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--bins", 0],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--lmax", 10],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 2, "--policy", "policy.csv"],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--policy", "no-such-policy.csv"],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--policy", "typo-policy.csv"],
    # Policies that can hold a packet at --lmax: sense-wait up to delay 49, and
    # wait below belief 0.9 at the cap.
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--policy", "lmax50-policy.csv", "--lmax", 10],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--policy", "cap-wait-policy.csv", "--lmax", 2],
    # Memoryless attempt limits above --lmax sense-wait at the cap.
    ["simulate", "--scenario", 1, "--lmax", 15, "--mp", 20],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--ks", 20, "--lmax", 15],
    # Empty lists, and lists with empty entries.
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--gammas", ""],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--ks", ""],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--gammas", ",,5,"],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--ks", "3,,5"],
])
def test_invalid_input_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    header = "delay,lambda_star,action_above_threshold\n"
    (tmp_path / "typo-policy.csv").write_text(
        header + "1,0.0,sense_wait\n2,0.0,sense_fallbak\n"
    )
    (tmp_path / "lmax50-policy.csv").write_text(
        header + "".join(f"{l},0.0,sense_wait\n" for l in range(1, 50)) + "50,0.0,sense_fallback\n"
    )
    (tmp_path / "cap-wait-policy.csv").write_text(
        header + "1,0.0,sense_wait\n2,0.9,sense_fallback\n"
    )
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    if argv[-2] in ("--gammas", "--ks"):  # a list entry that does not parse
        assert err.startswith(f"usage error: {argv[-2]}: '' is not ")
    assert not out.exists()  # rejected before any output or solve


@pytest.mark.parametrize("lmax", [2, 3, 7])
def test_cap_check_rejects_exactly_the_policies_that_stay_at_lmax(lmax):
    # A policy holds a packet at --lmax when its rule, read state by state,
    # waits or sense-waits there; with the threshold test belief <= th, the
    # beliefs 0 and 1 show both.  Thresholds come from lists shorter than,
    # as long as and longer than --lmax, whose last entry is 0, inside (0, 1)
    # or 1, with every switch delay up to one past the list.
    policies = [MemorylessPolicy(k) for k in range(1, 2 * lmax + 1)]
    policies += [
        ThresholdPolicy(lambda_star=np.array([0.3] * (m - 1) + [last]), l_star=l_star, l_max=m)
        for m in range(max(lmax - 1, 1), lmax + 2)
        for last in (0.0, 0.6, 1.0)
        for l_star in range(1, m + 2)
    ]
    raised = 0
    for policy in policies:
        if any(act(policy, b, lmax) != Action.SENSE_FALLBACK for b in (0.0, 1.0)):
            with pytest.raises(ValueError, match=f"^--p x waits or sense-waits at --lmax {lmax}$"):
                _check_cap("--p", "x", policy, lmax)
            raised += 1
        else:
            _check_cap("--p", "x", policy, lmax)
    assert 0 < raised < len(policies)


@pytest.mark.parametrize("argv", [
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--iterations", 0],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--gammas", "0,10"],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--ks", 0],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--lmax", 1],
    ["solve", "--scenario", 1, "--ktrunc", 0],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--ktrunc", 0],  # N=1 reads no --ktrunc
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 2, "--tol", "nan"],  # nor --tol
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--tol", 0],
    ["solve", "--alpha", 0.5, "--beta", 0.5, "--n", 0],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--lmax", 5, "--gamma", "nan"],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--lmax", 5, "--gamma", "inf"],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--lmax", 5, "--cs", "nan"],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--lmax", 5, "--phi", "nan"],
    ["solve", "--alpha", 0.15, "--beta", 0.1, "--lmax", 5, "--tol", "nan"],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--seed", -1],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--seed", -1],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--seed", -1],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--seed", -1],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--match-tol", "nan"],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--match-tol", -1],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--lmax", 6, "--gammas", "nan"],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--lmax", 6, "--gammas", "3,inf"],
])
def test_library_input_checks_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", 0.85, "--beta", 0.7, "--seed", 1],
    ["solve", "--alpha", 0.85, "--beta", 0.7, "--packets", 100],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--tol", "1e-6"],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--ktrunc", 5],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--packets", 100],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--gamma", 3],  # not --gammas
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--gamma", 3],
    ["solve", "--alph", 0.85, "--beta", 0.7],  # no abbreviations
])
def test_flag_the_command_does_not_read_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_unknown_command_exit_code():
    assert run(["frobnicate"]) == 1


def test_solve_writes_outputs(tmp_path, capsys):
    out = tmp_path / "solve"
    code = run(["solve", "--alpha", 0.85, "--beta", 0.7, "--out", out] + FAST_SOLVE)
    assert code == 0
    for name in (
        "policy.csv",
        "value_function.csv",
        "value_function_meta.json",
        "structure_report.txt",
        "manifest_solve.json",
    ):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest_solve.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["params"]["alpha"] == 0.85
    meta = json.loads((out / "value_function_meta.json").read_text())
    assert "gain" in meta and meta["l_max"] == 20


@pytest.mark.filterwarnings("ignore::osa.policy.DelayCapBound")
def test_solve_runs_where_pi0_rounds_to_beta_s_grid_point(tmp_path):
    # beta is a uniform grid point, and pi0 = 0.0198 rounds to it too.
    out = tmp_path / "solve"
    assert run(["solve", "--alpha", 0.01, "--beta", 0.02, "--lmax", 6, "--out", out]) == 0
    assert (out / "value_function.csv").exists()


@pytest.mark.parametrize("argv,l_max,cap_bound", [
    (["--scenario", 1, "--lmax", 15], 15, True),
    (["--scenario", 1, "--lmax", 8, "--gamma", 300], 8, False),
])
def test_descriptor_solve_reports_cap_bound(argv, l_max, cap_bound, tmp_path, capsys):
    # As at N = 1: cap_bound says the dedicated switch is forced by --lmax.
    assert run(["solve", *argv, "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    assert f"  cap_bound: {cap_bound}\n" in out
    assert (f"  l_star: {l_max}\n" in out) == cap_bound


def test_solve_degenerate_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["solve", "--alpha", 1.0, "--beta", 0.0, "--out", out])
    assert code == 2
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()


def test_simulation_failure_exit_code(tmp_path, capsys):
    # No gamma matches the baselines' delays exactly.
    out = tmp_path / "out"
    code = run(["compare", "--alpha", 0.15, "--beta", 0.1, "--lmax", 6, "--packets", 50,
                "--ks", "2,3", "--match-tol", 0, "--out", out])
    assert code == 3
    assert capsys.readouterr().err.startswith("simulation failure: ")
    assert not out.exists()


def test_out_naming_a_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    code = run(["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 2, "--packets", 50,
                "--out", out])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert out.read_text() == "not a directory\n"


# A small valid run of each command; learn needs room for its candidates'
# switch delays.
BOUNDARY_BASE = {"--alpha": "0.15", "--beta": "0.1", "--lmax": "6", "--packets": "50",
                 "--gammas": "3,30", "--ks": "2,3", "--iterations": "5"}
BOUNDARY_VALUES = ["0", "-1", "nan", "inf", "2.5", ""]


def test_every_flag_at_its_boundaries_exits_with_a_code(tmp_path):
    # Every int, float and str option of every command at each boundary value
    # over a small valid run: main returns an exit code, never raises, and
    # creates --out exactly when it returns 0.
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    failures, cases = [], 0
    for command, sub in subs.choices.items():
        flags = [a.option_strings[0] for a in sub._actions
                 if a.type in (int, float, str) and a.option_strings]
        base = {flag: BOUNDARY_BASE[flag] for flag in flags if flag in BOUNDARY_BASE}
        if command == "learn":
            base["--lmax"] = "20"
        for flag in flags:
            if flag == "--scenario":
                continue
            for value in BOUNDARY_VALUES:
                cases += 1
                out = tmp_path / str(cases)
                argv = [command, *(x for kv in {**base, flag: value}.items() for x in kv)]
                code = main(argv + ["--out", str(out)])
                if code not in (0, 1, 2, 3) or out.exists() != (code == 0):
                    failures.append((argv, code, out.exists()))
    assert cases == 402
    assert failures == []


def test_simulate_mp1_defaults(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run(["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 1, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "avg_delay=1.0000" in text
    assert "3000 packets" in text  # --packets default honored
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == (
        "gamma,avg_delay,energy_per_packet,energy_per_slot,"
        "throughput,avg_reward,senses,primary_tx,dedicated_tx"
    )


def test_simulate_repeat_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 3, "--seed", 7,
         "--packets", 500, "--out", out1])
    run(["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 3, "--seed", 7,
         "--packets", 500, "--out", out2])
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_simulate_from_policy_csv(tmp_path):
    solve_out = tmp_path / "solve"
    assert run(["solve", "--alpha", 0.85, "--beta", 0.7, "--out", solve_out] + FAST_SOLVE) == 0
    sim_out = tmp_path / "sim"
    # The policy's own l_max, and a larger one: it holds no packet at either.
    for lmax in (20, 30):
        code = run([
            "simulate", "--alpha", 0.85, "--beta", 0.7, "--packets", 500,
            "--policy", solve_out / "policy.csv", "--lmax", lmax, "--out", sim_out / str(lmax),
        ])
        assert code == 0
        assert (sim_out / str(lmax) / "metrics.csv").exists()


def test_simulate_trace_flag(tmp_path):
    out = tmp_path / "sim"
    code = run(["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 2,
                "--packets", 50, "--trace", "--out", out])
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,belief_sensed_channel,delay,action,observation,reward"
    assert len(lines) > 50


def test_rerun_reproduces_byte_identical(tmp_path):
    out = tmp_path / "first"
    run(["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 2, "--seed", 3,
         "--packets", 400, "--out", out])
    before = (out / "metrics.csv").read_bytes()
    manifest_before = (out / "manifest_simulate.json").read_bytes()
    assert run(["rerun", "--manifest", out / "manifest_simulate.json"]) == 0
    assert (out / "metrics.csv").read_bytes() == before
    assert (out / "manifest_simulate.json").read_bytes() == manifest_before


def test_sweep_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep", "--alpha", 0.15, "--beta", 0.1, "--gammas", "20,200",
                "--packets", 400, "--tol", "1e-6", "--out", out])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    delays = [float(line.split(",")[1]) for line in lines[1:]]
    assert delays[1] <= delays[0]
    assert (out / "manifest_sweep.json").exists()


def test_scenario_preset_roundtrip(tmp_path):
    # Dump the preset via the manifest, re-run from it, identical outputs.
    out = tmp_path / "s2"
    code = run(["solve", "--scenario", 2, "--ktrunc", 6, "--lmax", 8,
                "--tol", "1e-6", "--out", out])
    assert code == 0
    policy_before = (out / "policy.csv").read_bytes()
    assert run(["rerun", "--manifest", out / "manifest_solve.json"]) == 0
    assert (out / "policy.csv").read_bytes() == policy_before


def test_learn_trace_rows(tmp_path, capsys):
    out = tmp_path / "learn"
    code = run(["learn", "--alpha", 0.15, "--beta", 0.1, "--n", 2,
                "--iterations", 30, "--nbslot", 20, "--seed", 7,
                "--lmax", 15, "--out", out])
    assert code == 0
    lines = (out / "learn_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,alpha_hat,beta_hat,policy_id,window_reward,q_value"
    assert len(lines) == 31
    assert (out / "learned_policy.csv").exists()


def test_compare_exit_and_csv(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--alpha", 0.15, "--beta", 0.1, "--ks", "3",
                "--packets", 400, "--tol", "1e-6", "--match-tol", "0.5", "--out", out])
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "k,gamma,matched_delay_mp,matched_delay_opt,cost_mp,cost_opt,reduction_pct"
    assert len(lines) == 2


def test_compare_summary_prints_both_matched_delays(tmp_path, capsys):
    # --match-tol gates only the bracket's ends: inside it the closest gamma
    # misses k=5's delay by more than 0.1, and the summary line shows both.
    out = tmp_path / "cmp"
    assert run(["compare", "--alpha", 0.15, "--beta", 0.1, "--lmax", 15, "--ks", 5,
                "--match-tol", 0.1, "--out", out]) == 0
    k, gamma, mp, opt, _, _, pct = (out / "compare.csv").read_text().splitlines()[1].split(",")
    assert abs(float(mp) - float(opt)) > 0.1
    assert capsys.readouterr().out == (
        f"k={k} gamma={float(gamma):.4g} matched_delay_mp={float(mp):.3f} "
        f"matched_delay_opt={float(opt):.3f} reduction={float(pct):.2f}%\n"
    )


def test_compare_against_a_baseline_without_energy_is_usage_error(tmp_path, capsys):
    # With no sensing or primary-channel cost, memoryless k=8 at (0.85, 0.7)
    # delivers every packet free, so no energy reduction is defined against it.
    out = tmp_path / "cmp"
    code = run(["compare", "--alpha", 0.85, "--beta", 0.7, "--cs", 0, "--pp", 0, "--ks", 8,
                "--lmax", 15, "--packets", 300, "--out", out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: memoryless k=8 ")
    assert not out.exists()


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", 0.85, "--beta", 0.7] + FAST_SOLVE,
    ["solve", "--scenario", 2, "--ktrunc", 6, "--lmax", 8, "--tol", "1e-6"],
    ["simulate", "--alpha", 0.15, "--beta", 0.1, "--mp", 2, "--seed", 3,
     "--packets", 300, "--trace"],
    ["simulate", "--alpha", 0.85, "--beta", 0.7, "--policy", "policy.csv",
     "--packets", 300, "--lmax", 20],
    ["simulate", "--alpha", 0.85, "--beta", 0.7, "--n", 2, "--ktrunc", 4, "--lmax", 8,
     "--packets", 300],
    ["sweep", "--alpha", 0.15, "--beta", 0.1, "--gammas", "20,200", "--packets", 200,
     "--lmax", 15, "--tol", "1e-6"],
    ["compare", "--alpha", 0.15, "--beta", 0.1, "--ks", 3, "--packets", 200,
     "--lmax", 15, "--match-tol", 0.5],
    ["learn", "--alpha", 0.15, "--beta", 0.1, "--iterations", 20, "--nbslot", 20,
     "--lmax", 15, "--seed", 7],
], ids=["solve", "solve-scenario", "simulate-mp-trace", "simulate-policy",
        "simulate-solved-n2", "sweep", "compare", "learn"])
def test_rerun_round_trip(argv, tmp_path, monkeypatch):
    # Relative --out and --policy, rerun from another directory.
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.chdir(first)
    assert run(["solve", "--alpha", 0.85, "--beta", 0.7, "--out", "solved"] + FAST_SOLVE) == 0
    (first / "solved" / "policy.csv").rename(first / "policy.csv")
    assert run(argv + ["--out", "out"]) == 0
    before = _files(first / "out")
    manifest = second / "manifest.json"
    manifest.write_bytes(before[f"manifest_{argv[0]}.json"])
    for path in (first / "out").iterdir():
        path.unlink()
    monkeypatch.chdir(second)
    assert run(["rerun", "--manifest", manifest]) == 0
    assert _files(first / "out") == before


def _solve_outputs(argv, out, capsys):
    assert run(argv + ["--lmax", 8, "--ktrunc", 6, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    gain = next(line for line in lines if line.startswith("  gain:"))
    return lines[0].partition(":")[0], gain, (out / "policy.csv").read_bytes()


def test_model_flags_override_the_preset(tmp_path, capsys):
    name, *preset = _solve_outputs(["solve", "--scenario", 2, "--gamma", 500, "--n", 2],
                                   tmp_path / "preset", capsys)
    _, *custom = _solve_outputs(["solve", "--alpha", 0.85, "--beta", 0.7, "--n", 2,
                                 "--gamma", 500], tmp_path / "custom", capsys)
    assert preset == custom
    assert name == "solved scenario-2-often-idle (n_channels=2, gamma=500.0)"
    # A flag that repeats the preset's value changes nothing, not even the name.
    unchanged, *_ = _solve_outputs(["solve", "--scenario", 2, "--gamma", 10],
                                   tmp_path / "unchanged", capsys)
    assert unchanged == "solved scenario-2-often-idle"
    params = json.loads((tmp_path / "preset" / "manifest_solve.json").read_text())["params"]
    assert (params["scenario"], params["n_channels"], params["gamma"]) == (2, 2, 500.0)


@pytest.mark.parametrize("content", [
    None,  # no manifest file
    "directory",
    "{",
    {"command": "solve"},
    {"command": "solve", "params": {"alpha": 0.85, "beta": 0.7, "seed": 1}},
    {"command": "solve", "params": {"alpha": "high", "beta": 0.7}},
    {"command": "simulate", "params": {"alpha": 0.15, "beta": 0.1, "mp": 1, "trace": "yes"}},
    {"command": "rerun", "params": {}},
    {"command": ["solve"], "params": {}},
], ids=["missing", "directory", "malformed", "no-params", "unknown-flag", "bad-value",
        "bad-switch", "rerun", "bad-command"])
def test_rerun_input_errors_are_usage_errors(content, tmp_path, capsys):
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.json"
    if content == "directory":
        manifest.mkdir()
    elif isinstance(content, str):
        manifest.write_text(content)
    elif content is not None:
        # A rerun manifest names itself; every other run writes under out.
        key, val = ("manifest", manifest) if content["command"] == "rerun" else ("out", out)
        content.get("params", {})[key] = str(val)
        manifest.write_text(json.dumps(content))
    assert run(["rerun", "--manifest", manifest]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@settings(max_examples=8, deadline=None)
@given(scenario=st.sampled_from(sorted(SCENARIOS)), n=st.sampled_from([1, 4]),
       seed=st.integers(0, 2**16), mp=st.sampled_from([None, 2, 5]),
       packets=st.integers(1, 300), iterations=st.integers(1, 40))
def test_simulate_and_learn_write_what_the_library_gives(scenario, n, seed, mp, packets,
                                                         iterations):
    # The CLI's metrics row and learn trace, byte for byte, against the same
    # runs made through run_episode and run_learning.
    sc = replace(SCENARIOS[scenario], n_channels=n)
    model = ["--scenario", scenario, "--n", n, "--lmax", 15, "--seed", seed]
    cfg = SimConfig(channels=sc.channels(), rewards=sc.rewards, policy=None,
                    num_packets=packets, seed=seed, l_max=15)
    cfg.policy = MemorylessPolicy(mp) if mp else _solve(cfg, sc.gamma, DEFAULT_TOL)
    learned = run_learning(LearnerConfig(l_max=15), sc.channels(), sc.rewards, iterations, seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        policy = ["--mp", mp] if mp else []
        assert run(["simulate", *model, *policy, "--packets", packets, "--out", out / "sim"]) == 0
        assert run(["learn", *model, "--iterations", iterations, "--out", out / "learn"]) == 0
        write_rows(out / "metrics.csv", SweepRow, [SweepRow.of(sc.gamma, run_episode(cfg)[0])])
        write_rows(out / "learn_trace.csv", LearnTraceRow, learned.trace)
        assert (out / "sim" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
        assert (out / "learn" / "learn_trace.csv").read_bytes() == (
            out / "learn_trace.csv").read_bytes()
