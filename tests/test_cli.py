import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from authcap.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BINARY_CFG = {"binary": {"p": 0.1, "q": 0.5, "eps": 0.2}, "seed": 3,
              "classifier_trials": 2000}
GAUSSIAN_CFG = {"gaussian": {"rho1_sq": 7 / 8, "rho2_sq": 4 / 5,
                             "rho3_sq": 2 / 3, "alpha_grid": 200}}
# the eavesdropper's correlation is the larger: Y is degraded w.r.t. Z
GAUSSIAN_Z_FAVOR_CFG = {"gaussian": {"rho1_sq": 7 / 8, "rho2_sq": 0.5, "rho3_sq": 2 / 3}}
# erasure above H_b(0.2): neither channel is more capable
UNORDERED_CFG = {"px": [0.5, 0.5],
                 "ec": [[0.9, 0.1], [0.1, 0.9]],
                 "ac_y": [[0.2, 0.0, 0.8], [0.0, 0.2, 0.8]],
                 "ac_z": [[0.8, 0.2], [0.2, 0.8]],
                 "seed": 0}


def test_classify_binary(tmp_path, capsys):
    cfg = write_config(tmp_path, BINARY_CFG)
    assert run_cli("classify", "--config", cfg) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["relation"] == "less_noisy_Y_over_Z"
    assert out["version"]
    assert out["seed"] == 3


def test_classify_equal_channels_tie(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "px": [0.5, 0.5],
        "ec": [[0.9, 0.1], [0.1, 0.9]],
        "ac_y": [[0.8, 0.2], [0.2, 0.8]],
        "ac_z": [[0.8, 0.2], [0.2, 0.8]],
        "seed": 0})
    assert run_cli("classify", "--config", cfg, "--samples", "500") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["relation"] == "degraded_Z_wrt_Y"
    assert "equivalent" in out["verdict"]["note"]


def test_classify_gaussian(tmp_path, capsys):
    cfg = write_config(tmp_path, GAUSSIAN_CFG)
    assert run_cli("classify", "--config", cfg) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["relation"] == "degraded_Z_wrt_Y"

    cfg = write_config(tmp_path, GAUSSIAN_Z_FAVOR_CFG, "z.json")
    assert run_cli("classify", "--config", cfg) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == {
        "relation": "degraded_Y_wrt_Z", "certainty": "exact", "witness": None,
        "residual": None, "details": {},
        "note": "jointly Gaussian observations are always ordered by squared correlation"}


def test_classify_unordered_still_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "px": [0.5, 0.5],
        "ec": [[0.9, 0.1], [0.1, 0.9]],
        "ac_y": [[0.2, 0.0, 0.8], [0.0, 0.2, 0.8]],
        "ac_z": [[0.8, 0.2], [0.2, 0.8]],
        "seed": 0})
    assert run_cli("classify", "--config", cfg, "--samples", "2000") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["relation"] == "unordered"


def test_exit_codes(tmp_path):
    assert run_cli("classify", "--config", str(tmp_path / "missing.json")) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli("classify", "--config", str(bad_json)) == 3

    two_forms = write_config(tmp_path, {**BINARY_CFG, **GAUSSIAN_CFG}, "two.json")
    assert run_cli("classify", "--config", two_forms) == 3

    stoch = {"px": [0.5, 0.5],
             "ec": [[0.5, 0.4], [0.1, 0.9]],   # row sums 0.9
             "ac_y": [[1.0, 0.0], [0.0, 1.0]],
             "ac_z": [[1.0, 0.0], [0.0, 1.0]]}
    assert run_cli("classify", "--config", write_config(tmp_path, stoch, "stoch.json")) == 4
    # the classifier checks its trial count only once the model's arrays are read
    stoch_zero = write_config(tmp_path, {**stoch, "classifier_trials": 0}, "stoch0.json")
    assert run_cli("classify", "--config", stoch_zero) == 4

    # a regular file where the output directory's parent should be
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, GAUSSIAN_CFG, "g.json")
    assert run_cli("region", "--config", cfg, "--out", str(blocker / "out")) == 2


def test_region_binary_reproducible(tmp_path):
    cfg = write_config(tmp_path, {"binary": {"p": 0.1, "q": 0.5, "eps": 0.2,
                                             "beta_step": 0.01},
                                  "seed": 1, "classifier_trials": 2000})
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert run_cli("region", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("region", "--config", cfg, "--out", str(out2)) == 0
    for name in ("region.csv", "region.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    text = (out1 / "region.csv").read_text().splitlines()
    assert text[0].startswith("# version=")
    assert text[1] == "rs,rj,rl,unit,param,u_size,test_channel"
    data = json.loads((out1 / "region.json").read_text())
    assert data["unit"] == "bits"
    best = max(data["corners"], key=lambda c: c["rs"])
    assert abs(best["rs"] - 0.0922) < 5e-5


def test_region_gaussian(tmp_path):
    cfg = write_config(tmp_path, GAUSSIAN_CFG)
    out = tmp_path / "g"
    assert run_cli("region", "--config", cfg, "--out", str(out)) == 0
    data = json.loads((out / "region.json").read_text())
    assert data["unit"] == "nats"
    best = max(data["corners"], key=lambda c: c["rs"])
    assert abs(best["rs"] - 0.5 * math.log(25 / 18)) < 1e-3


def test_region_gaussian_a3(tmp_path):
    cfg = write_config(tmp_path, {"gaussian": {"rho1_sq": 7 / 8, "rho2_sq": 0.5,
                                               "rho3_sq": 2 / 3}})
    out = tmp_path / "a3"
    assert run_cli("region", "--config", cfg, "--out", str(out)) == 0
    data = json.loads((out / "region.json").read_text())
    assert len(data["corners"]) == 1
    assert abs(data["corners"][0]["rl"] - 0.5 * math.log(3.0)) < 1e-12


def test_region_unit_override(tmp_path):
    cfg = write_config(tmp_path, {"binary": {"p": 0.1, "q": 0.5, "eps": 0.2,
                                             "beta_step": 0.05},
                                  "classifier_trials": 2000})
    out = tmp_path / "nats"
    assert run_cli("region", "--config", cfg, "--out", str(out),
                   "--unit", "nats") == 0
    data = json.loads((out / "region.json").read_text())
    assert data["unit"] == "nats"
    best = max(c["rs"] for c in data["corners"])
    assert abs(best - 0.0922 * math.log(2)) < 1e-4


def test_region_unsupported_class(tmp_path):
    # unordered pair, no region formula
    cfg = write_config(tmp_path, {**UNORDERED_CFG, "sampler": {"random_samples": 10}})
    assert run_cli("region", "--config", cfg, "--out", str(tmp_path / "u")) == 5


Z_FAVOR_CFG = {"px": [0.5, 0.5],
               "ec": [[0.9, 0.1], [0.1, 0.9]],
               "ac_y": [[0.74, 0.26], [0.26, 0.74]],
               "ac_z": [[0.9, 0.1], [0.1, 0.9]],
               "seed": 0}


def test_region_discrete_z_favor(tmp_path):
    cfg = write_config(tmp_path, Z_FAVOR_CFG)
    out = tmp_path / "zf"
    assert run_cli("region", "--config", cfg, "--out", str(out)) == 0
    data = json.loads((out / "region.json").read_text())
    assert len(data["corners"]) == 1
    assert data["corners"][0]["rs"] == 0.0


@pytest.mark.parametrize("cfg,flag", [
    (BINARY_CFG, ["--samples", "7"]),
    (GAUSSIAN_CFG, ["--samples", "7"]), (GAUSSIAN_CFG, ["--grid-step", "0.1"]),
    (Z_FAVOR_CFG, ["--samples", "7"]), (Z_FAVOR_CFG, ["--grid-step", "0.1"]),
], ids=["binary-samples", "gaussian-samples", "gaussian-grid-step", "zero-key-samples",
        "zero-key-grid-step"])
def test_region_flag_the_chosen_region_does_not_read_exits_3(tmp_path, capsys, cfg, flag):
    # the closed forms sweep no samples, the Gaussian one has no beta grid,
    # and the zero-key region is one corner: an accepted value must act
    out = tmp_path / "o"
    assert run_cli("region", "--config", write_config(tmp_path, cfg), "--out", str(out),
                   *flag) == 3
    assert f"error: {flag[0]} is not read by the" in capsys.readouterr().err
    assert not out.exists()


def test_classify_samples_on_a_gaussian_config_exits_3(tmp_path, capsys):
    # the Gaussian verdict is exact from the squared correlations and runs
    # no classifier trials
    cfg = write_config(tmp_path, GAUSSIAN_CFG)
    assert run_cli("classify", "--config", cfg, "--samples", "-7") == 3
    captured = capsys.readouterr()
    assert captured.err == "error: --samples is not read by the Gaussian verdict\n"
    assert captured.out == ""


@pytest.mark.parametrize("cfg,sampler,name", [
    (BINARY_CFG, "garbage", "sampler"),
    (Z_FAVOR_CFG, {"random_samples": "many", "u_sizes": "x"}, "sampler.random_samples"),
    (GAUSSIAN_CFG, 5, "sampler"),
], ids=["binary", "zero-key", "gaussian"])
def test_region_checks_a_sampler_block_it_does_not_read(tmp_path, capsys, cfg, sampler, name):
    # only a discrete pair in Y's favour sweeps with the block, but compare
    # reads it too: a malformed one exits 3 whichever region is built
    out = tmp_path / "o"
    assert run_cli("region", "--config", write_config(tmp_path, {**cfg, "sampler": sampler}),
                   "--out", str(out)) == 3
    assert f"error: {name} must be" in capsys.readouterr().err
    assert not out.exists()


def test_region_accepts_a_well_formed_sampler_block_it_does_not_read(tmp_path):
    sampler = {"random_samples": 10, "beta_grid_step": 0.05, "u_sizes": [1, 2]}
    for i, cfg in enumerate((BINARY_CFG, Z_FAVOR_CFG, GAUSSIAN_CFG)):
        corners = []
        for extra in ({}, {"sampler": sampler}):
            out = tmp_path / f"{i}-{len(extra)}"
            path = write_config(tmp_path, {**cfg, **extra}, f"{i}-{len(extra)}.json")
            assert run_cli("region", "--config", path, "--out", str(out)) == 0
            corners.append(json.loads((out / "region.json").read_text())["corners"])
        assert corners[0] == corners[1]
    # compare sweeps with the same block on the same binary config
    path = write_config(tmp_path, {**BINARY_CFG, "sampler": sampler, "compare_pairs": 5})
    assert run_cli("compare", "--config", path, "--out", str(tmp_path / "c")) == 0


def test_figures(tmp_path):
    cfg = write_config(tmp_path, GAUSSIAN_CFG)
    out = tmp_path / "fig"
    assert run_cli("figures", "--config", cfg, "--out", str(out)) == 0
    rs_rows = np.loadtxt(out / "rs_vs_rj.csv", delimiter=",", skiprows=2)
    rl_rows = np.loadtxt(out / "rl_vs_rj.csv", delimiter=",", skiprows=2)
    # columns: alpha, rj_hsm, val_hsm, rj_vsm, val_vsm
    assert rs_rows.shape[1] == 5
    # key rate: the noiseless-enrollment overlay dominates at matched storage
    grid = np.linspace(max(rs_rows[:, 1].min(), rs_rows[:, 3].min()),
                       min(rs_rows[:, 1].max(), rs_rows[:, 3].max()), 200)
    rs_h = np.interp(grid, rs_rows[::-1, 1], rs_rows[::-1, 2])
    rs_v = np.interp(grid, rs_rows[::-1, 3], rs_rows[::-1, 4])
    assert np.all(rs_v >= rs_h - 1e-9)
    rl_h = np.interp(grid, rl_rows[::-1, 1], rl_rows[::-1, 2])
    rl_v = np.interp(grid, rl_rows[::-1, 3], rl_rows[::-1, 4])
    assert np.all(rl_h <= rl_v + 1e-9)

    non_gauss = write_config(tmp_path, BINARY_CFG, "ng.json")
    assert run_cli("figures", "--config", non_gauss, "--out", str(out)) == 3


def test_figures_no_eavesdropper(tmp_path):
    cfg = write_config(tmp_path, {"gaussian": {"rho1_sq": 7 / 8, "rho2_sq": 4 / 5,
                                               "rho3_sq": 0.0, "alpha_grid": 50}})
    out = tmp_path / "fig0"
    assert run_cli("figures", "--config", cfg, "--out", str(out)) == 0
    rl_rows = np.loadtxt(out / "rl_vs_rj.csv", delimiter=",", skiprows=2)
    assert rl_rows[:, 2].min() >= -1e-12   # leakage floor collapses to zero


def test_simulate(tmp_path):
    cfg = write_config(tmp_path, {
        **BINARY_CFG,
        "simulator": {"n": 5, "gamma": 0.1, "trials": 200,
                      "test_channel": {"bsc": 0.1}}})
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert run_cli("simulate", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(out2)) == 0
    assert (out1 / "simulation.json").read_bytes() == \
        (out2 / "simulation.json").read_bytes()
    rep = json.loads((out1 / "simulation.json").read_text())["report"]
    assert rep["m_s"] == 1
    assert rep["exact_secrecy_leakage_bits"] == 0.0
    assert rep["mu_n"] == 0.0
    assert 0.0 <= rep["error_prob"] <= 1.0
    assert rep["wilson_high"] >= rep["error_prob"] >= rep["wilson_low"]


def test_simulate_keyed_config(tmp_path):
    # configs/keyed.json is the shipped simulator run with a key
    config = Path(__file__).parents[1] / "configs" / "keyed.json"
    assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path)) == 0
    rep = json.loads((tmp_path / "simulation.json").read_text())["report"]
    assert rep["m_s"] > 1
    assert 0.0 <= rep["exact_secrecy_leakage_bits"] <= math.log2(rep["m_s"])


def test_simulate_limit_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        **BINARY_CFG,
        "simulator": {"n": 12, "gamma": 0.1, "trials": 50,
                      "test_channel": {"bsc": 0.1},
                      "max_codebook_size": 4194304}})
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x")) == 6
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--monte-carlo-only") == 0


def test_simulate_requires_block(tmp_path):
    cfg = write_config(tmp_path, BINARY_CFG)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x")) == 3


def test_compare_degraded_binary(tmp_path):
    cfg = write_config(tmp_path, {
        "px": [0.5, 0.5],
        "ec": [[0.9, 0.1], [0.1, 0.9]],
        "ac_y": [[0.9, 0.1], [0.1, 0.9]],
        "ac_z": [[0.74, 0.26], [0.26, 0.74]],
        "seed": 5,
        "sampler": {"random_samples": 3000, "beta_grid_step": 0.002}})
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", cfg, "--out", str(out),
                   "--samples", "300") == 0
    data = json.loads((out / "comparison.json").read_text())
    assert data["two_aux_excess_over_one_aux"] <= 5e-3
    assert data["one_aux_excess_over_two_aux_with_embedding"] <= 1e-12
    assert data["verdict"]["relation"] == "degraded_Z_wrt_Y"


def test_compare_unsupported(tmp_path, capsys):
    cfg = write_config(tmp_path, UNORDERED_CFG)
    assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "c")) == 5
    assert capsys.readouterr().err == (
        "error: the one-auxiliary vs two-auxiliary comparison needs a degraded or less-noisy "
        "pair in the main channel's favor; classifier found unordered\n")


def test_compare_embedding_matches_per_corner_loop(tmp_path):
    # the batched constant-V check against the per-corner loop it replaced
    from authcap import (AuthModel, BinaryModelParams, Channel, DiscreteDistribution,
                         SamplerConfig, eval_one_aux, eval_two_aux, sweep_region)

    sampler = {"random_samples": 500, "beta_grid_step": 0.01}
    discrete = {k: DEGRADED_CFG[k] for k in ("px", "ec", "ac_y", "ac_z")}
    discrete_model = AuthModel(DiscreteDistribution(discrete["px"]),
                               *(Channel(discrete[k]) for k in ("ec", "ac_y", "ac_z")),
                               classifier_seed=3)
    for payload, model in (
            ({**BINARY_CFG, "sampler": sampler},
             BinaryModelParams(0.1, 0.5, 0.2).model(classifier_trials=2000, classifier_seed=3)),
            ({**discrete, "seed": 3, "sampler": sampler}, discrete_model)):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--config", cfg, "--out", str(out), "--samples", "50") == 0
        data = json.loads((out / "comparison.json").read_text())

        front = sweep_region(model, SamplerConfig(seed=3, **sampler))
        ref_gap = 0.0
        for corner in front.corners:
            test_u = corner.test_channel
            v_const = Channel.constant(test_u.num_outputs)
            two = eval_two_aux(model, test_u, v_const,
                               max_u=max(4, test_u.num_outputs), max_v=3)
            one = eval_one_aux(model, test_u)
            ref_gap = max(ref_gap,
                          abs(two.rs - one.rs), abs(two.rj - one.rj),
                          abs(two.rl - one.rl))
        assert data["one_aux_corners"] == len(front.corners)
        assert data["one_aux_excess_over_two_aux_with_embedding"] == ref_gap


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is imported by the degradedness LP and the more-capable
    # test when they run, not by `import authcap.cli`
    code = "import sys, authcap.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_command_on_a_shipped_config_loads_scipy(tmp_path):
    # in one fresh interpreter, every command on every configs/*.json: none
    # of them reaches the LP or the more-capable search, and the binary
    # closed form is its beta grid alone
    code = """if True:
        import contextlib, io, json, sys
        from pathlib import Path
        from authcap.cli import main
        runs = []
        for path in sorted(Path(sys.argv[1]).glob("*.json")):
            for command in ("classify", "region", "figures", "simulate", "compare"):
                argv = [command, "--config", str(path)]
                if command != "classify":
                    argv += ["--out", str(Path(sys.argv[2]) / path.stem / command)]
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    exit_code = main(argv)
                runs.append([path.stem, command, exit_code,
                             sorted(m for m in sys.modules if m.startswith("scipy"))])
        print(json.dumps(runs))
    """
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(root / "configs"), str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    runs = json.loads(proc.stdout)
    assert len(runs) == 20
    assert [run[:2] for run in runs if run[3]] == []
    ran = {(stem, command) for stem, command, exit_code, _ in runs if exit_code == 0}
    assert {("binary", "region"), ("keyed", "region"), ("binary", "compare"),
            ("discrete_degraded", "compare"), ("gaussian", "figures")} <= ran


def test_bad_seed_exit_code(tmp_path, capsys):
    for seed in ("x", None, -1):
        cfg = write_config(tmp_path, {**BINARY_CFG, "seed": seed,
                                      "simulator": {"n": 2, "trials": 5}})
        for cmd in ("classify", "region", "simulate", "compare"):
            argv = ["--config", cfg] + ([] if cmd == "classify" else ["--out", str(tmp_path / "o")])
            assert run_cli(cmd, *argv) == 3
        gauss = write_config(tmp_path, {**GAUSSIAN_CFG, "seed": seed}, "g.json")
        assert run_cli("figures", "--config", gauss, "--out", str(tmp_path / "f")) == 3
    assert "seed" in capsys.readouterr().err


def test_each_command_registers_only_the_flags_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in subparsers.choices.items()}
    assert flags == {
        "classify": {"--config", "--seed", "--samples"},
        "region": {"--config", "--out", "--seed", "--unit", "--samples", "--grid-step"},
        "figures": {"--config", "--out", "--seed"},
        "simulate": {"--config", "--out", "--seed", "--monte-carlo-only"},
        "compare": {"--config", "--out", "--seed", "--samples", "--grid-step"},
    }


@pytest.mark.parametrize("command,flag", [
    ("classify", ["--unit", "bits"]), ("classify", ["--grid-step", "0.1"]),
    ("figures", ["--unit", "bits"]), ("figures", ["--samples", "5"]),
    ("figures", ["--grid-step", "0.1"]),
    ("simulate", ["--unit", "bits"]), ("simulate", ["--samples", "5"]),
    ("simulate", ["--grid-step", "0.1"]),
    ("compare", ["--unit", "nats"]),
])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    argv = [command, "--config", str(tmp_path / "c.json"), *flag]
    if command != "classify":
        argv += ["--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as e:
        run_cli(*argv)
    assert e.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_explicit_zero_overrides_reach_validators(tmp_path):
    # an explicit 0 is an override, not "unset": the validators reject it
    cfg = write_config(tmp_path, BINARY_CFG)
    out = str(tmp_path / "z")
    assert run_cli("classify", "--config", cfg, "--samples", "0") == 3
    assert run_cli("region", "--config", cfg, "--out", out, "--grid-step", "0") == 3
    degraded = write_config(tmp_path, {
        "px": [0.5, 0.5],
        "ec": [[0.9, 0.1], [0.1, 0.9]],
        "ac_y": [[0.9, 0.1], [0.1, 0.9]],
        "ac_z": [[0.74, 0.26], [0.26, 0.74]],
        "seed": 5, "sampler": {"random_samples": 10}}, "d.json")
    assert run_cli("compare", "--config", degraded, "--out", out, "--samples", "0") == 3


def test_region_sampler_sizes_exit_code(tmp_path):
    base = {"px": [0.5, 0.5],
            "ec": [[0.9, 0.1], [0.1, 0.9]],
            "ac_y": [[0.9, 0.1], [0.1, 0.9]],
            "ac_z": [[0.74, 0.26], [0.26, 0.74]],
            "seed": 5}
    out = str(tmp_path / "r")
    oversized = write_config(tmp_path, {**base, "sampler": {"u_sizes": [9]}}, "u.json")
    assert run_cli("region", "--config", oversized, "--out", out) == 3
    plain = write_config(tmp_path, base, "p.json")
    assert run_cli("region", "--config", plain, "--out", out, "--samples", "-5") == 3


# ---------------------------------------------------------------------------
# One config schema: JSON types, size caps, and exit codes for any config
# ---------------------------------------------------------------------------

DEGRADED_CFG = {"px": [0.5, 0.5],
                "ec": [[0.9, 0.1], [0.1, 0.9]],
                "ac_y": [[0.9, 0.1], [0.1, 0.9]],
                "ac_z": [[0.74, 0.26], [0.26, 0.74]],
                "seed": 5, "classifier_trials": 50, "compare_pairs": 5,
                "sampler": {"random_samples": 10, "beta_grid_step": 0.05, "u_sizes": [1, 2]}}
SIM_CFG = {**BINARY_CFG, "simulator": {"n": 4, "gamma": 0.1, "trials": 20,
                                       "test_channel": {"bsc": 0.1}}}
CAP = 1_000_000   # the documented cap on every size field


def with_field(base, path, value):
    """A deep copy of `base` with the dotted `path` set to `value`."""
    cfg = json.loads(json.dumps(base))
    if path is None:
        return cfg
    *blocks, key = path.split(".")
    node = cfg
    for b in blocks:
        node = node[b]
    node[key] = value
    return cfg


def run_config(tmp_path, command, cfg, *extra):
    path = write_config(tmp_path, cfg)
    out = [] if command == "classify" else ["--out", str(tmp_path / "out")]
    return run_cli(command, "--config", path, *out, *extra)


def case_id(case):
    command, _, path, value, _, extra = case
    return " ".join([command, f"{path}={value!r}"] if path else [command, *extra])


# (command, base config, field path, value, name expected in stderr, extra argv);
# each one exited 1 with a traceback, or 0 on a misread value, before the
# config was read by one typed reader.
MALFORMED = [
    ("simulate", SIM_CFG, "simulator.test_channel", {"bsc": 2}, "test_channel", []),
    ("simulate", SIM_CFG, "simulator.test_channel", {"bsc": "x"}, "test_channel", []),
    ("simulate", SIM_CFG, "simulator.n", [4], "simulator.n", []),
    ("simulate", SIM_CFG, "simulator.gamma", [1], "simulator.gamma", []),
    ("simulate", SIM_CFG, "simulator.rate_overrides", {"r_j": "x", "r_s": 0.1}, "r_j", []),
    ("region", GAUSSIAN_CFG, "gaussian.alpha_grid", [3], "alpha_grid", []),
    ("region", DEGRADED_CFG, "sampler.u_sizes", 3, "u_sizes", []),
    ("region", DEGRADED_CFG, "sampler.u_sizes", ["a"], "u_sizes", []),
    ("region", DEGRADED_CFG, "sampler", [1], "sampler", []),
    ("compare", DEGRADED_CFG, "sampler", "x", "sampler", []),
    ("region", BINARY_CFG, "unit", 5, "unit", []),
    ("simulate", SIM_CFG, "simulator.n", 4.7, "simulator.n", []),
    ("classify", BINARY_CFG, "seed", 1.5, "seed", []),
    ("classify", BINARY_CFG, "seed", True, "seed", []),
    ("classify", BINARY_CFG, "seed", "7", "seed", []),
    ("simulate", SIM_CFG, "simulator.bijective_bins", "no", "bijective_bins", []),
    ("classify", DEGRADED_CFG, "classifier_trials", -4, "classifier_trials", []),
    ("classify", DEGRADED_CFG, None, None, "classifier_trials", ["--samples", "0"]),
    # a degraded pair (q <= 2 eps) never reaches the classifier's sampler
    ("region", {**BINARY_CFG, "binary": {"p": 0.1, "q": 0.3, "eps": 0.2}},
     "classifier_trials", 0, "classifier_trials", []),
    ("compare", DEGRADED_CFG, "sampler.u_sizes", [9], "u_sizes", []),
    ("simulate", SIM_CFG, "simulator.max_codebook_size", 0, "max_codebook_size", []),
] + [
    # a plan that draws nothing, or drops its random samples for want of a
    # size, wrote an empty region, or compare's excess as `Infinity`
    (command, DEGRADED_CFG, "sampler", plan, "sampler", [])
    for command in ("region", "compare")
    for plan in ({"random_samples": 0, "beta_grid_step": 0},
                 {"random_samples": 2000, "beta_grid_step": 0, "u_sizes": []})
] + [
    # every command that classifies reads classifier_trials, not only classify
    (command, base, "classifier_trials", value, "classifier_trials", [])
    for command, base in (("region", BINARY_CFG), ("region", DEGRADED_CFG),
                          ("simulate", SIM_CFG), ("compare", DEGRADED_CFG))
    for value in ("x", -4)
]


@pytest.mark.parametrize("command, base, path, value, name, extra", MALFORMED,
                         ids=[case_id(c) for c in MALFORMED])
def test_malformed_field_exits_3_naming_it(tmp_path, capsys, command, base, path, value,
                                          name, extra):
    assert run_config(tmp_path, command, with_field(base, path, value), *extra) == 3
    assert name in capsys.readouterr().err


# Values just above the cap, rejected before anything is allocated.
OVER_CAP = [
    ("classify", BINARY_CFG, "classifier_trials", CAP + 1, "classifier_trials", []),
    ("classify", BINARY_CFG, None, None, "classifier_trials", ["--samples", str(CAP + 1)]),
    ("compare", DEGRADED_CFG, "compare_pairs", CAP + 1, "compare_pairs", []),
    ("compare", DEGRADED_CFG, None, None, "compare_pairs", ["--samples", str(CAP + 1)]),
    ("region", DEGRADED_CFG, "sampler.random_samples", CAP + 1, "random_samples", []),
    ("region", DEGRADED_CFG, None, None, "random_samples", ["--samples", str(CAP + 1)]),
    ("region", GAUSSIAN_CFG, "gaussian.alpha_grid", CAP + 1, "alpha_grid", []),
    ("simulate", SIM_CFG, "simulator.trials", CAP + 1, "simulator.trials", []),
    # a beta step of 1/2 / CAP gives CAP + 1 grid points
    ("region", BINARY_CFG, "binary.beta_step", 0.5 / CAP, "beta_step", []),
    ("region", BINARY_CFG, None, None, "beta_step", ["--grid-step", str(0.5 / CAP)]),
    ("region", DEGRADED_CFG, "sampler.beta_grid_step", 0.5 / CAP, "beta_grid_step", []),
    ("compare", DEGRADED_CFG, None, None, "beta_grid_step", ["--grid-step", str(0.5 / CAP)]),
]


@pytest.mark.parametrize("command, base, path, value, name, extra", OVER_CAP,
                         ids=[case_id(c) for c in OVER_CAP])
def test_size_over_cap_exits_3(tmp_path, capsys, command, base, path, value, name, extra):
    assert run_config(tmp_path, command, with_field(base, path, value), *extra) == 3
    assert name in capsys.readouterr().err


# Simulator sizes just above their caps, rejected before any trial or table is
# allocated: key and bin counts 2^21 (max_codebook_size 2^20), exact-leakage
# encoder laws of 2^26 cells (2^4 x 2^22 and 2^13 x 2^13), trials x n = 34,000,000.
SIM_OVER_CAP = [
    ({"rate_overrides": {"r_j": 5.25, "r_s": 0.0}}, "m_j", []),
    ({"rate_overrides": {"r_j": 0.0, "r_s": 5.25}}, "m_s", []),
    ({"rate_overrides": {"r_j": 3.0, "r_s": 2.5}}, "exact leakage", []),
    ({"n": 13, "exact_leakage_limit": 13, "rate_overrides": {"r_j": 0.75, "r_s": 0.25}},
     "exact leakage", []),
    ({"n": 34, "trials": CAP}, "trials x n", ["--monte-carlo-only"]),
]


@pytest.mark.parametrize("fields, name, extra", SIM_OVER_CAP,
                         ids=[" ".join(f"{k}={v}" for k, v in c[0].items()) for c in SIM_OVER_CAP])
def test_simulator_size_over_cap_exits_6(tmp_path, capsys, fields, name, extra):
    cfg = {**SIM_CFG, "simulator": {**SIM_CFG["simulator"], **fields}}
    assert run_config(tmp_path, "simulate", cfg, *extra) == 6
    assert name in capsys.readouterr().err


# (command, config, extra argv, exit code, text in stderr)
REJECTED = [
    ("classify", [BINARY_CFG], [], 3, "config root must be a JSON object"),
    ("classify", {**UNORDERED_CFG, "ac_y": [[0.3, -0.1, 0.8], [0.0, 0.2, 0.8]]}, [], 4,
     "ac_y has negative or non-finite entries"),
    ("classify", {**UNORDERED_CFG, "ac_y": [[0.2, float("nan"), 0.8], [0.0, 0.2, 0.8]]}, [], 4,
     "ac_y has negative or non-finite entries"),
    ("compare", {**UNORDERED_CFG, "ac_y": [[0.9, 0.1], [0.1, 0.9]],
                 "ec": [[0.6, 0.1, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.1, 0.6]]}, [], 3,
     "compare is restricted to tiny alphabets (|Xt| <= 4)"),
    ("figures", GAUSSIAN_Z_FAVOR_CFG, [], 5, "the eavesdropper dominates"),
    # the unsupported class wins over a size over its cap and a bad seed
    ("region", UNORDERED_CFG, ["--samples", "2000000"], 5,
     "the one-auxiliary region needs a degraded or less-noisy pair in the main channel's "
     "favor; classifier found unordered"),
    ("figures", {**GAUSSIAN_Z_FAVOR_CFG, "seed": -1}, [], 5, "the eavesdropper dominates"),
]


@pytest.mark.parametrize("command, cfg, extra, code, text", REJECTED,
                         ids=["root-array", "negative-entry", "nan-entry", "compare-xt-5",
                              "figures-z-favor", "unsupported-before-cap",
                              "unsupported-before-seed"])
def test_rejected_config_exits_with_its_code(tmp_path, capsys, command, cfg, extra, code, text):
    assert run_config(tmp_path, command, cfg, *extra) == code
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def field_paths(cfg, prefix=""):
    """Dotted paths of every field of `cfg`, blocks and the fields inside them."""
    for key, value in cfg.items():
        path = prefix + key
        yield path
        if isinstance(value, dict):
            yield from field_paths(value, path + ".")


# Every field of the base configs under every command that reads them.
PROPERTY_BASES = [
    (cmd, {**SIM_CFG, "unit": "nats", "sampler": DEGRADED_CFG["sampler"], "compare_pairs": 5,
           "simulator": {**SIM_CFG["simulator"], "exact_leakage_limit": 10,
                         "max_codebook_size": 256, "bijective_bins": False, "trace": True,
                         "rate_overrides": {"r_j": 0.5, "r_s": 0.25}}})
    for cmd in ("classify", "region", "simulate", "compare")
] + [(cmd, {**DEGRADED_CFG, "unit": "bits"}) for cmd in ("classify", "region", "compare")] + [
    (cmd, {**GAUSSIAN_CFG, "seed": 2, "gaussian": {**GAUSSIAN_CFG["gaussian"], "alpha_grid": 20,
                                                   "alpha_min": 1e-6}})
    for cmd in ("classify", "region", "figures")]
PROPERTY_CASES = [(cmd, base, path) for cmd, base in PROPERTY_BASES
                  for path in field_paths(base)]
BLOCKS = {"binary", "gaussian", "sampler", "simulator", "simulator.test_channel"}

# Small counts and steps of at least 0.05 keep every example cheap; the cap
# tests above cover large values.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20)
    | st.integers(-60, 60).map(lambda k: k / 20) | st.text(max_size=4)
    | st.sampled_from(["bits", "nats"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["bsc", "p", "x", "n", "r_j", "r_s"]), inner, max_size=2),
    max_leaves=6)


@settings(deadline=None, max_examples=400)
@given(case=st.sampled_from(PROPERTY_CASES), value=JSON_VALUES)
def test_any_field_value_maps_to_documented_exit_code(case, value):
    command, base, path = case
    # an object in place of a block falls back to default sizes (100,000 sweep
    # samples, 10,000 trials): valid, but too slow for an example
    assume(path not in BLOCKS or not isinstance(value, dict))
    with tempfile.TemporaryDirectory() as tmp:
        code = run_config(Path(tmp), command, with_field(base, path, value))
    assert code in {0, 2, 3, 4, 5, 6}
