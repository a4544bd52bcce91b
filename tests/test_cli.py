"""End-to-end runs of the command line driver on desk-size problems."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import magrhf.cli as cli
from magrhf.runio import checkpoint_load, parse_config

# the child interpreters import the package from this checkout, as the tests do
ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

BASE = {
    "system": {
        "cell": {"L": 8.0, "n": 12},
        "nuclei": [{"z": 1.0, "R": [4.0, 4.0, 4.0]}],
        "N": 1.0,
        "alpha": 0.05,
    },
    "scf": {"tol": 1e-6, "max_iter": 40},
    "scan": {"zs": [1.0, 2.0], "lambdas": [1.0, 2.0, 4.0], "alphas": [0.05, 0.1]},
    "zero_mode": {"box_L": 20.0, "box_ns": [12, 16]},
    "tf": {"points": 512, "tol": 1e-5},
    "seed": 3,
}


def _run(sub, cfg, tmp_path, extra=()):
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out_dir = os.path.join(tmp_path, "out")
    proc = subprocess.run(
        [sys.executable, "-m", "magrhf.cli", sub, "--config", cfg_path, "--out", out_dir, *extra],
        capture_output=True,
        text=True,
        timeout=600,
        env=ENV,
    )
    record = None
    rec_path = os.path.join(out_dir, f"{sub}_record.json")
    if os.path.exists(rec_path):
        record = json.load(open(rec_path))
    return proc, record, out_dir


def test_scf_subcommand_and_checkpoint(tmp_path):
    ckpt = os.path.join(tmp_path, "state.ckpt")
    proc, record, _ = _run("scf", BASE, tmp_path, extra=("--checkpoint", ckpt))
    assert proc.returncode == 0, proc.stderr
    assert record["run"]["converged"] is True
    assert record["results"]["energy"]["total"]["unit"] == "hartree"
    # the levels the fill read: 1s twice, not the guard rows' unconverged ones
    assert len(record["results"]["levels"]) == 2 and len(record["results"]["occupations"]["values"]) == 4
    assert os.path.exists(ckpt)
    assert checkpoint_load(ckpt).alpha == BASE["system"]["alpha"]
    # warm restart from the converged checkpoint finishes in <= 2 iterations
    proc2, record2, _ = _run("scf", BASE, tmp_path, extra=("--checkpoint", ckpt))
    assert proc2.returncode == 0
    assert record2["results"]["iterations"] <= 2


def test_checkpoint_into_missing_directory(tmp_path):
    # the checkpoint's directory is created like the record's, after the solve
    ckpt = os.path.join(tmp_path, "new", "state.ckpt")
    proc, record, _ = _run("scf", BASE, tmp_path, extra=("--checkpoint", ckpt))
    assert proc.returncode == 0, proc.stderr
    assert record is not None
    assert checkpoint_load(ckpt).alpha == BASE["system"]["alpha"]


def test_scf_validation_error_exit_code(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["system"]["alpha"] = -1.0
    proc, record, _ = _run("scf", bad, tmp_path)
    assert proc.returncode == 1
    assert "alpha" in proc.stderr
    assert record is None  # validation fails before any computation


def test_alpha_c_record_is_self_consistent(tmp_path):
    proc, record, _ = _run("alpha-c", BASE, tmp_path)
    assert proc.returncode == 0
    for row in record["results"]["rows"]:
        beta = row["beta_upper_bound"]["value"]
        ac = row["alpha_c_upper_bound"]["value"]
        assert beta < 0.0
        # recompute the threshold from the recorded bound
        assert abs(ac - math.sqrt(-1.0 / (8.0 * math.pi * beta))) < 1e-12 * ac


def test_instability_scan_decreasing_when_supercritical(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    record0 = _run("alpha-c", cfg, tmp_path)[1]
    ac = record0["results"]["rows"][0]["alpha_c_upper_bound"]["value"]
    cfg["system"]["alpha"] = 1.5 * ac
    proc, record, out_dir = _run("instability-scan", cfg, tmp_path)
    assert proc.returncode == 0
    assert record["results"]["unstable"] is True
    csv = open(os.path.join(out_dir, "instability-scan_dilation.csv")).read().splitlines()
    assert csv[0].startswith("# config_hash=")
    energies = [float(line.split(",")[1]) for line in csv[2:]]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_zero_mode_subcommand(tmp_path):
    proc, record, _ = _run("zero-mode", BASE, tmp_path)
    assert proc.returncode == 0
    assert abs(record["results"]["I1"]["value"] - 2.0 / math.pi) < 1e-9
    res = record["residuals"]
    assert res["grid_n16"]["value"] < res["grid_n12"]["value"]


def test_alpha_scan_subcommand(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["system"]["mode"] = "periodic"
    proc, record, out_dir = _run("alpha-scan", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert record["results"]["monotone_nonincreasing"] is True
    csv = open(os.path.join(out_dir, "alpha-scan_scan.csv")).read().splitlines()
    assert len(csv) == 2 + len(cfg["scan"]["alphas"])


def test_tf_bound_subcommand(tmp_path):
    proc, record, out_dir = _run("tf-bound", BASE, tmp_path)
    assert proc.returncode == 0
    assert record["results"]["I_TF"]["value"] < 0.0
    csv = open(os.path.join(out_dir, "tf-bound_bounds.csv")).read().splitlines()
    rows = [line.split(",") for line in csv[2:]]
    const = record["results"]["chain_constant"]["value"]
    for z_str, bound_str, _ in rows:
        assert abs(float(bound_str) - const * float(z_str) ** (7.0 / 6.0)) < 1e-12


def test_check_inequalities_subcommand(tmp_path):
    # a box large enough that the bound state decays before the boundary
    # keeps the whole-space kinetic inequalities valid on the torus
    cfg = json.loads(json.dumps(BASE))
    cfg["system"]["cell"] = {"L": 14.0, "n": 28}
    cfg["system"]["nuclei"] = [{"z": 1.0, "R": [7.0, 7.0, 7.0]}]
    cfg["system"]["N"] = 1.0
    cfg["zero_mode"]["box_ns"] = [16]
    proc, record, _ = _run("check-inequalities", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert record["results"]["scf_violations"] == 0
    assert record["results"]["zero_mode"]["lieb_thirring_ok"] is True


def test_exit_code_two_when_flagged(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["scf"]["max_iter"] = 1
    cfg["scf"]["tol"] = 1e-13
    proc, record, _ = _run("scf", cfg, tmp_path)
    assert proc.returncode == 2
    assert record["run"]["converged"] is False


def test_eigensolver_failure_after_first_iterate_is_flagged(monkeypatch, tmp_path):
    # every step counts as an energy rise and the eigensolver fails on the
    # first retry of iteration 2: the run ends flagged, not in a traceback
    import magrhf.scf as scf

    calls: list[int] = []
    original_eigensolve, original_solve = scf.eigensolve, cli.scf_solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise scf.EigensolveError("forced", np.zeros(0), np.zeros(0))
        return original_eigensolve(*args, **kwargs)

    def solve(spec, config, **kwargs):
        return original_solve(spec, replace(config, energy_slack_rel=-1.0), **kwargs)

    monkeypatch.setattr(scf, "eigensolve", failing)
    monkeypatch.setattr(cli, "scf_solve", solve)
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(BASE, fh)
    assert cli.main(["scf", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    record = json.load(open(os.path.join(tmp_path, "scf_record.json")))
    assert record["run"]["flags"] == ["eigensolver_failed"]
    assert record["results"]["iterations"] == 1


def test_eigensolver_failure_on_first_iterate_exits_three(monkeypatch, tmp_path, capsys):
    # with no accepted iterate there is no state to record: an error line
    # and exit code 3, not a traceback
    import magrhf.scf as scf

    def failing(*args, **kwargs):
        raise scf.EigensolveError("forced", np.zeros(0), np.zeros(0))

    monkeypatch.setattr(scf, "eigensolve", failing)
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(BASE, fh)
    assert cli.main(["scf", "--config", cfg_path, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.strip() == "error: forced"
    assert not os.path.exists(os.path.join(tmp_path, "scf_record.json"))


def test_seed_override_recorded(tmp_path):
    proc, record, _ = _run("beta-bound", BASE, tmp_path, extra=("--seed", "42"))
    assert proc.returncode == 0
    assert record["run"]["seed"] == 42


def test_instability_scan_rejects_multiple_nuclei(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["system"]["nuclei"] = [
        {"z": 1.0, "R": [2.0, 2.0, 2.0]},
        {"z": 1.0, "R": [6.0, 6.0, 6.0]},
    ]
    cfg["system"]["N"] = 2.0
    proc, record, _ = _run("instability-scan", cfg, tmp_path)
    assert proc.returncode == 1
    assert "single nucleus" in proc.stderr


def test_alpha_scan_requires_alphas(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["scan"]["alphas"] = []
    proc, record, _ = _run("alpha-scan", cfg, tmp_path)
    assert proc.returncode == 1
    assert "alphas" in proc.stderr


@pytest.mark.parametrize(
    "sub, overrides, message",
    [
        ("beta-bound", {"zero_mode": {"spin_direction": [1, 1, 0]}}, "unit 3-vector"),
        ("beta-bound", {"zero_mode": {"spin_direction": [0, 1]}}, "zero_mode.spin_direction"),
        ("zero-mode", {"zero_mode": {"box_ns": [12, 15]}}, "n=15"),
        ("scf", {"system": {"nuclei": [{"z": 1.0, "R": [20.0, 6.0, 6.0]}]}}, "outside the cell"),
        ("instability-scan", {"scan": {"lambdas": [2.0, 1.0]}}, "lambdas must be positive and strictly ascending"),
        ("instability-scan", {"scan": {"lambdas": []}}, "lambdas must not be empty"),
        ("alpha-scan", {"scan": {"alphas": [0.1, 0.05]}}, "alphas must be positive and strictly ascending"),
        ("tf-bound", {"constants": {"C_LT": -1.0}}, "C_LT must be positive"),
        ("check-inequalities", {"constants": {"C2": 0.0}}, "C2 must be positive"),
        ("tf-bound", {"constants": {"C_sobolev": -2.0}}, "C_sobolev must be positive"),
        ("zero-mode", {"zero_mode": {"dilation": 0.0}}, "dilation must be positive"),
        ("check-inequalities", {"zero_mode": {"box_ns": []}}, "box_ns must not be empty"),
        ("scf", {"system": BASE["system"], "scf": {"deg_threshold": -1.0}}, "deg_threshold must be non-negative"),
        ("scf", {"system": BASE["system"], "scf": {"eig_block": 0}}, "eig_block must be at least 1"),
        ("scf", {"system": dict(BASE["system"], N=3.0), "scf": {"eig_block": 1}}, "eig_block=1 cannot hold"),
        ("scf", {"system": BASE["system"], "scf": {"eig_tol": 0.0}}, "eig_tol must be positive"),
        ("scf", {"system": BASE["system"], "scf": {"s_nuc": -0.5}}, "s_nuc must be non-negative"),
        ("zero-mode", {"zero_mode": {"box_ns": [64, 48]}}, "box_ns must be strictly ascending"),
        ("zero-mode", {"zero_mode": {"box_ns": [48, 48]}}, "box_ns must be strictly ascending"),
    ],
)
def test_config_errors_exit_one_without_traceback(tmp_path, sub, overrides, message):
    proc, record, _ = _run(sub, overrides, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert record is None


@pytest.mark.parametrize(
    "sub, flag",
    [("zero-mode", "--config"), ("beta-bound", "--out"), ("scf", "--checkpoint")],
)
def test_unusable_paths_exit_one_without_traceback(tmp_path, sub, flag):
    # a directory as the config file, or a path through a regular file
    # for the record directory or the checkpoint
    through_file = os.path.join(tmp_path, "cfg.json", "x")
    bad = str(tmp_path) if flag == "--config" else through_file
    proc, record, _ = _run(sub, BASE, tmp_path, extra=(flag, bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert record is None and not os.path.exists(through_file)


def test_checkpoint_rejected_where_it_is_not_read(tmp_path):
    ckpt = os.path.join(tmp_path, "state.ckpt")
    proc, record, _ = _run("beta-bound", BASE, tmp_path, extra=("--checkpoint", ckpt))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "--checkpoint" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert record is None and not os.path.exists(ckpt)


def test_dispatch_table_matches_parser():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert list(sub.choices) == list(cli.RUNNERS)


def test_beta_bound_rows_are_alpha_c_columns():
    cfg = parse_config(json.dumps(BASE))
    beta = cli.run("beta-bound", cfg)
    alpha_c = cli.run("alpha-c", cfg)
    assert beta.tables["beta"][0] == alpha_c.tables["alpha_c"][0][:3]
    assert beta.tables["beta"][1] == [row[:3] for row in alpha_c.tables["alpha_c"][1]]
    for b, a in zip(beta.results["rows"], alpha_c.results["rows"]):
        assert b == {k: v for k, v in a.items() if k != "alpha_c_upper_bound"}


def test_runners_look_up_patched_names(monkeypatch, tmp_path):
    # the benchmark's tracer replaces these module attributes at run time
    calls = []

    def traced(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("run", "grid_residual", "tf_minimize"):
        traced(name)
    cfg = dict(BASE, output={"out_dir": str(tmp_path)})
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(["zero-mode", "--config", cfg_path]) == 0
    assert cli.main(["tf-bound", "--config", cfg_path]) == 0
    assert calls == ["run", "grid_residual", "grid_residual", "run", "tf_minimize"]


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # the zero-mode integrals are closed forms, so no quadrature is loaded; and numpy
    # is the only runtime dependency, so no run loads scipy at all: the solves run
    # here, which catches imports made inside functions
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(BASE, fh)
    out_dir = os.path.join(tmp_path, "out")
    code = (
        "import sys, magrhf.cli\n"
        "integrate = 'scipy.integrate' in sys.modules\n"
        f"codes = [magrhf.cli.main([sub, '--config', {cfg_path!r}, '--out', {out_dir!r}]) for sub in ('scf', 'zero-mode')]\n"
        "print(integrate, codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False [0, 0] []"
