"""Command line driver.

    magrhf <subcommand> --config <path> [--out <dir>] [--checkpoint <path>] [--seed <int>]

Subcommands: ``scf`` and ``scf-periodic`` run the self-consistent loop
for a molecule in a box or a crystal cell; ``zero-mode`` reports the
grid residual of the analytic kernel pair over a refinement ladder;
``beta-bound`` and ``alpha-c`` evaluate the rank-1 threshold bound;
``instability-scan`` tabulates the energy along the dilation path;
``alpha-scan`` maps the ground-state energy over couplings;
``tf-bound`` runs the Thomas-Fermi minimisation and the z^(7/6) chain;
``check-inequalities`` audits the kinetic inequalities on a fresh solve
and on the sampled zero mode.

Exit status: 0 when every residual in the record is below its
configured tolerance, 2 for a flagged (non-converged or violating) run,
1 for configuration or usage errors, and 3 when the eigensolver fails on
the first SCF iterate (there is no state, so no record is written).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .constants import C2_DEFAULT, C_LT_CLASSICAL
from .density import DensityMatrix, kinetic_inequality_report
from .fields import Cell
from .runio import (
    CheckpointError,
    ConfigError,
    ResultRecord,
    RunConfig,
    checkpoint_load,
    checkpoint_save,
    parse_config,
    tagged,
)
from .scf import EigensolveError, concavity_defects, scan_alpha, scf_solve
from .tfbound import RadialGrid, beta_lower_bound_chain, tf_minimize
from .zeromodes import (
    alpha_c_from_beta,
    beta_rank1_upper_bound,
    dilate,
    grid_residual,
    instability_scan,
    loss_yau,
    sample_on_cell,
)

_LEDGER_COLUMNS = ("kinetic_trace", "lieb_thirring_lhs", "hoffmann_ostenhof_lhs", "sobolev_lhs")


def _inequalities_ok(report: dict) -> bool:
    return bool(report["lieb_thirring_ok"] and report["hoffmann_ostenhof_ok"] and report["sobolev_ok"])


def _inequality_table(state) -> tuple[tuple, list]:
    """The per-iterate inequality audit as a (header, rows) table."""
    rows = [
        (r["iteration"], *(r[c] for c in _LEDGER_COLUMNS), int(_inequalities_ok(r)))
        for r in state.inequality_ledger
    ]
    return ("iteration", *_LEDGER_COLUMNS, "ok"), rows


def _violations(table: tuple[tuple, list]) -> int:
    return sum(1 - row[-1] for row in table[1])


def _inequality_constants(cfg: RunConfig) -> tuple[float, float]:
    """C_LT and C2, with the package defaults for unset values."""
    c = cfg.constants
    return (
        C_LT_CLASSICAL if c.C_LT is None else c.C_LT,
        C2_DEFAULT if c.C2 is None else c.C2,
    )


def _residuals_dict(state, tol: float) -> dict:
    return {
        "orbital": {"value": state.residual_orbital, "tolerance": tol, "unit": "hartree"},
        "field_equation": {"value": state.residual_field, "tolerance": tol, "unit": "relative"},
        "continuity": {"value": state.residual_continuity, "tolerance": tol, "unit": "relative"},
    }


# Each runner takes the config and the --checkpoint path (read only by
# the SCF runners) and returns the ResultRecord fields of its run.


def _run_scf(cfg: RunConfig, checkpoint: str | None, *, mode: str) -> dict:
    spec = cfg.system_spec(mode)
    scf_cfg = cfg.scf_config()
    initial = None
    if checkpoint:
        try:
            initial = checkpoint_load(checkpoint).initial_for(spec)
        except FileNotFoundError:
            initial = None  # fresh start; the file will be written on success
    state = scf_solve(spec, scf_cfg, initial=initial)
    inequalities = _inequality_table(state)
    results = {
        "energy": {k: tagged(v, "hartree") for k, v in state.energy.as_dict().items()},
        "fermi_energy": tagged(state.fermi_energy, "hartree"),
        "iterations": state.iteration,
        "levels": [tagged(v, "hartree") for v in np.asarray(state.levels)[:state.converged_levels].tolist()],
        "occupations": {"values": np.asarray(state.gamma.occupations).tolist(),
                        "unit": "dimensionless"},
        "trace": tagged(state.gamma.trace(), "dimensionless"),
        "field_energy_raw": tagged(state.A.field_energy_raw, "dimensionless"),
        "forced_energy_increases": state.forced_energy_increases,
        "inequality_violations": _violations(inequalities),
    }
    if checkpoint:
        checkpoint_save(state, checkpoint)
    return dict(
        converged=state.converged,
        flags=tuple(f for f in (state.flag,) if f),
        results=results,
        residuals=_residuals_dict(state, scf_cfg.tol),
        tables={
            "energy_history": (
                ("iteration", "total_energy_hartree"),
                [(i + 1, e) for i, e in enumerate(state.energy_history)],
            ),
            "inequalities": inequalities,
        },
    )


def _run_zero_mode(cfg: RunConfig, checkpoint: str | None) -> dict:
    zm = cfg.zero_mode
    fam = dilate(loss_yau(zm.spin_direction), zm.dilation)
    rows = [(n, grid_residual(fam, Cell(zm.box_L, n))) for n in zm.box_ns]
    decreasing = all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    return dict(
        converged=decreasing,
        flags=() if decreasing else ("residual_not_decreasing",),
        results={
            "I1": tagged(fam.i1, "dimensionless"),
            "D1": tagged(fam.d1, "dimensionless"),
            "B2": tagged(fam.b2, "dimensionless"),
            "trace": tagged(fam.trace(), "dimensionless"),
            "kinetic_trace": tagged(fam.kinetic_trace(), "hartree"),
        },
        residuals={
            f"grid_n{n}": {"value": r, "tolerance": None, "unit": "relative"} for n, r in rows
        },
        tables={"residuals": (("n", "relative_residual"), rows)},
    )


_THRESHOLD_COLUMNS = (
    ("z", "dimensionless"),
    ("epsilon_star", "dimensionless"),
    ("beta_upper_bound", "hartree"),
    ("alpha_c_upper_bound", "dimensionless"),
)


def _run_threshold(cfg: RunConfig, checkpoint: str | None, *, table: str) -> dict:
    """The rank-1 upper bound on beta per charge; the ``alpha_c`` table adds alpha_c."""
    with_alpha_c = table == "alpha_c"
    columns = _THRESHOLD_COLUMNS if with_alpha_c else _THRESHOLD_COLUMNS[:3]
    fam = loss_yau(cfg.zero_mode.spin_direction)
    rows = []
    for z in cfg.scan.zs:
        eps_star, beta_ub = beta_rank1_upper_bound(z, cfg.system.N, fam)
        row = (z, eps_star, beta_ub)
        rows.append(row + (alpha_c_from_beta(beta_ub),) if with_alpha_c else row)
    return dict(
        results={
            "N": tagged(cfg.system.N, "dimensionless"),
            "rows": [
                {name: tagged(v, unit) for (name, unit), v in zip(columns, row)} for row in rows
            ],
        },
        tables={table: (tuple(name for name, _ in columns), rows)},
    )


def _run_instability_scan(cfg: RunConfig, checkpoint: str | None) -> dict:
    if len(cfg.system.nuclei) != 1:
        raise ConfigError("instability-scan supports a single nucleus only")
    z = cfg.system.nuclei[0].z
    fam = loss_yau(cfg.zero_mode.spin_direction)
    scan = instability_scan(z, cfg.system.N, cfg.system.alpha, list(cfg.scan.lambdas), fam)
    return dict(
        results={
            "alpha": tagged(scan.alpha, "dimensionless"),
            "alpha_c_upper_bound": tagged(scan.alpha_c_ub, "dimensionless"),
            "epsilon_star": tagged(scan.epsilon_star, "dimensionless"),
            "slope": tagged(scan.slope, "hartree"),
            "slope_fit": tagged(scan.slope_fit, "hartree"),
            "unstable": scan.unstable,
        },
        tables={"dilation": (("lambda", "energy_hartree"), list(zip(scan.lambdas, scan.energies)))},
    )


def _run_alpha_scan(cfg: RunConfig, checkpoint: str | None) -> dict:
    if not cfg.scan.alphas:
        raise ConfigError("alpha-scan requires a nonempty scan.alphas list")
    rows = scan_alpha(cfg.system_spec(), list(cfg.scan.alphas), cfg.scf_config())
    defects = concavity_defects(rows) if len(rows) >= 3 else np.zeros(0)
    monotone = all(b.energy.total <= a.energy.total + 1e-7 for a, b in zip(rows, rows[1:]))
    return dict(
        converged=all(r.converged for r in rows),
        flags=tuple(f"alpha={r.alpha}:{r.flag}" for r in rows if r.flag)
        + (() if monotone else ("energy_not_monotone",)),
        results={
            "monotone_nonincreasing": monotone,
            "concavity_defects": {"values": defects.tolist(), "unit": "hartree"},
            "max_concavity_defect": tagged(float(defects.max()) if defects.size else 0.0, "hartree"),
        },
        tables={
            "scan": (
                ("alpha", "total_energy_hartree", "converged"),
                [(r.alpha, r.energy.total, int(r.converged)) for r in rows],
            )
        },
    )


def _run_tf_bound(cfg: RunConfig, checkpoint: str | None) -> dict:
    result = tf_minimize(RadialGrid(cfg.tf.r_min, cfg.tf.r_max, cfg.tf.points), tol=cfg.tf.tol)
    constants = {"C_LT": _inequality_constants(cfg)[0]}
    if cfg.constants.C_sobolev is not None:
        constants["C_sobolev"] = cfg.constants.C_sobolev
    rows = []
    for z in cfg.scan.zs:
        led = beta_lower_bound_chain(z, constants, i_tf=result.energy)
        rows.append((z, led.bound, led.chain_constant))
    return dict(
        converged=result.converged,
        flags=() if result.converged else ("tf_not_converged",),
        results={
            "I_TF": tagged(result.energy, "hartree"),
            "kkt_residual": tagged(result.kkt, "hartree"),
            "iterations": result.iterations,
            "chain_constant": tagged(rows[0][2] if rows else 0.0, "hartree"),
        },
        residuals={"tf_kkt": {"value": result.kkt, "tolerance": cfg.tf.tol, "unit": "hartree"}},
        tables={"bounds": (("z", "beta_lower_bound", "chain_constant"), rows)},
    )


def _run_check_inequalities(cfg: RunConfig, checkpoint: str | None) -> dict:
    state = scf_solve(cfg.system_spec(), cfg.scf_config())
    iterates = _inequality_table(state)
    violations = _violations(iterates)
    fam = loss_yau(cfg.zero_mode.spin_direction)
    psi, pot = sample_on_cell(fam, Cell(cfg.zero_mode.box_L, cfg.zero_mode.box_ns[0]))
    gamma = DensityMatrix((psi.normalized(),), np.array([min(1.0, cfg.system.N)]))
    c_lt, c2 = _inequality_constants(cfg)
    zm_report = kinetic_inequality_report(gamma, pot, c_lt=c_lt, c2=c2)
    zm_ok = _inequalities_ok(zm_report)
    return dict(
        converged=violations == 0 and zm_ok and state.converged,
        flags=tuple(
            f
            for f in (
                None if state.converged else "scf_not_converged",
                None if violations == 0 else f"scf_violations={violations}",
                None if zm_ok else "zero_mode_violation",
            )
            if f
        ),
        results={
            "scf_iterates_checked": len(state.inequality_ledger),
            "scf_violations": violations,
            "zero_mode": {k: (v if isinstance(v, bool) else tagged(v, "hartree"))
                          for k, v in zm_report.items()},
            "constants": {
                "C_LT": tagged(c_lt, "dimensionless"),
                "C2": tagged(c2, "dimensionless"),
            },
        },
        residuals=_residuals_dict(state, cfg.scf.tol),
        tables={"iterates": iterates},
    )


#: Subcommand name -> runner.  The runners look the solver functions up
#: as module globals when they run, so patching those names takes effect.
RUNNERS = {
    "scf": partial(_run_scf, mode="molecular"),
    "scf-periodic": partial(_run_scf, mode="periodic"),
    "zero-mode": _run_zero_mode,
    "beta-bound": partial(_run_threshold, table="beta"),
    "alpha-c": partial(_run_threshold, table="alpha_c"),
    "instability-scan": _run_instability_scan,
    "alpha-scan": _run_alpha_scan,
    "tf-bound": _run_tf_bound,
    "check-inequalities": _run_check_inequalities,
}
#: the subcommands that read and write --checkpoint
_CHECKPOINTED = ("scf", "scf-periodic")


def run(subcommand: str, cfg: RunConfig, checkpoint: str | None = None) -> ResultRecord:
    """Dispatch one subcommand; returns the filled record (not yet written)."""
    if subcommand not in RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if checkpoint and subcommand not in _CHECKPOINTED:
        raise ConfigError(f"--checkpoint is read only by {' and '.join(_CHECKPOINTED)}, not {subcommand}")
    t0 = time.perf_counter()
    record = ResultRecord(subcommand, cfg, seed=cfg.seed, **RUNNERS[subcommand](cfg, checkpoint))
    record.elapsed_s = time.perf_counter() - t0
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magrhf",
        description="Spectral workbench for the mean-field model with self-generated magnetic fields",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, default=None, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config output.out_dir)")
        p.add_argument("--checkpoint", default=None, help="binary checkpoint path (scf and scf-periodic only)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = parse_config("{}")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        record = run(args.subcommand, cfg, checkpoint=args.checkpoint)
        paths = record.write(args.out or cfg.output.out_dir)
    except (ConfigError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EigensolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    status = 0 if record.converged and not record.flags else 2
    print(f"{args.subcommand}: {'ok' if status == 0 else 'flagged'} "
          f"({record.elapsed_s:.1f} s), wrote {', '.join(paths)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
