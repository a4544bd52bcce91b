"""The four benchmark workloads: inputs, the operation, and its checks.

Each workload is built from a seed.  ``setup`` makes the inputs (and
pays the one-time costs a user pays before the first solver call),
``run`` is the timed operation, and ``check`` returns the list of
correctness failures of its outcome (empty when correct).
``fingerprint`` lists the output floats that a traced and an untraced
operation on the same seed must reproduce bit for bit.

Why these four (see also ``README.md`` next to this file):

* ``scf-default`` -- the documented first run through the CLI layer:
  cold-start LOBPCG, a record and a checkpoint written.  Its state is
  unpolarised, yet most Hamiltonian builds take the A != 0 branch on
  roundoff-level A, so it carries the magnetic apply cost.
* ``pinned-oracle`` -- the criterion-5 cross-check on a small grid: the
  only workload whose spinor apply is the pure A = 0 branch, plus the
  spin-free oracle sharing the eigensolver with one component.
* ``magnetic-polarised`` -- the only workload with a physical field:
  a polarised H atom at alpha = 0.2 for a fixed budget of outer
  iterations, checked against closed-form linear response.
* ``analytic`` -- zero modes and the Thomas-Fermi chain; no eigensolver
  runs, so it is the bypass case for every LOBPCG and SCF change.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np

import magrhf.cli
import magrhf.fields
import magrhf.scf
import magrhf.spinless
import magrhf.zeromodes
from magrhf.fields import Cell
from magrhf.hamiltonian import Nucleus, SystemSpec
from magrhf.runio import checkpoint_load, parse_config

# the package re-exports the function density(), which hides the module
density_mod = import_module("magrhf.density")

#: Converged total energy (hartree) of H in Cell(12, 24) with the default
#: nuclear smearing, on the A = 0 fixed point.  The unpolarised state has
#: no field, so the value does not depend on alpha; it is the reference
#: of ``scf-default`` and the unpolarised end of ``magnetic-polarised``.
E_H_CELL12_N24 = -0.0391110702982289
E_REF_RTOL = 1e-10

#: Closed-form alpha_c(z = 1) of the rank-1 Loss-Yau bound.
ALPHA_C_Z1 = math.pi * math.sqrt(1.5)

#: Tolerance on Delta E / (-(pi/2) alpha^2 ||P_perp m||^2) - 1; the
#: linear-response value neglects O(alpha^4) terms and the orbital
#: response, which at alpha = 0.2 stay well below this share.
LINEAR_RESPONSE_RTOL = 0.02

H24 = {"system": {"cell": {"L": 12.0, "n": 24}}}


def _warm(cell: Cell) -> Cell:
    """Fill the cell's cached wave-vector tables, a one-time set-up cost."""
    for attr in ("k", "k2", "k2_full", "inv_k2", "inv_k2_deriv", "coords"):
        getattr(cell, attr)
    return cell


def _config(seed: int, overrides: dict):
    return parse_config(json.dumps({**overrides, "seed": seed}))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    run: Callable[[dict, str], dict]
    check: Callable[[dict], list]
    fingerprint: Callable[[dict], list]
    #: orbital block whose batched FFT time gauges the machine's speed: the
    #: spinor eigensolver's block, or one spinor on the finest zero-mode grid
    ref_block: tuple[int, ...]
    layer_values: Callable[[dict], dict] = lambda outcome: {}


# --------------------------------------------------------------------------
# scf-default: H in Cell(12, 24) through the CLI, record and checkpoint
# --------------------------------------------------------------------------


def _scf_default_setup(seed: int) -> dict:
    return {"cfg": _config(seed, H24)}


def _scf_default_run(inputs: dict, scratch: str) -> dict:
    ckpt = os.path.join(scratch, "state.ckpt")
    record = magrhf.cli.run("scf", inputs["cfg"], checkpoint=ckpt)
    paths = record.write(scratch)
    saved = checkpoint_load(ckpt)
    return {
        "energy": record.results["energy"]["total"]["value"],
        "converged": record.converged,
        "flags": list(record.flags),
        "iterations": record.results["iterations"],
        "written": all(os.path.getsize(p) > 0 for p in paths),
        "checkpoint_n": saved.n,
        "checkpoint_fermi": saved.fermi_energy,
        "fermi": record.results["fermi_energy"]["value"],
    }


def _scf_default_check(out: dict) -> list:
    fails = []
    if not out["converged"] or out["flags"]:
        fails.append(f"scf-default did not converge cleanly (flags {out['flags']})")
    if abs(out["energy"] - E_H_CELL12_N24) > E_REF_RTOL * abs(E_H_CELL12_N24):
        fails.append(f"energy {out['energy']!r} differs from the reference {E_H_CELL12_N24!r}")
    if not out["written"]:
        fails.append("record files are empty")
    if out["checkpoint_n"] != 24 or out["checkpoint_fermi"] != out["fermi"]:
        fails.append("checkpoint does not carry the solved state")
    return fails


# --------------------------------------------------------------------------
# pinned-oracle: He, A pinned at zero, against the spin-free path
# --------------------------------------------------------------------------


def _pinned_setup(seed: int) -> dict:
    cell = _warm(Cell(10.0, 20))
    spec = SystemSpec(cell, (Nucleus(2.0, (5.0, 5.0, 5.0)),), N=2.0, alpha=0.02)
    return {
        "spec": spec,
        "cfg": magrhf.scf.SCFConfig(tol=1e-8, pin_A=True, max_iter=60, seed=seed),
        "seed": seed,
    }


def _pinned_run(inputs: dict, scratch: str) -> dict:
    state = magrhf.scf.scf_solve(inputs["spec"], inputs["cfg"])
    ref = magrhf.spinless.scf_solve_spinless(inputs["spec"], tol=1e-9, eig_tol=1e-10, seed=inputs["seed"])
    return {
        "energy": state.energy.total,
        "converged": state.converged,
        "ref_energy": ref.energy_total,
        "ref_converged": ref.converged,
    }


def _pinned_check(out: dict) -> list:
    fails = []
    if not (out["converged"] and out["ref_converged"]):
        fails.append("a path of pinned-oracle did not converge")
    rel = abs(out["energy"] - out["ref_energy"]) / abs(out["ref_energy"])
    if not rel <= 1e-8:
        fails.append(f"spinor and spin-free energies differ by {rel:.3e} relative")
    return fails


# --------------------------------------------------------------------------
# magnetic-polarised: polarised H at alpha = 0.2, fixed outer budget
# --------------------------------------------------------------------------


def _magnetic_setup(seed: int) -> dict:
    cell = _warm(Cell(12.0, 24))
    spec = SystemSpec(cell, (Nucleus(1.0, (6.0, 6.0, 6.0)),), N=1.0, alpha=0.2)
    cfg = magrhf.scf.SCFConfig(tol=1e-8, deg_threshold=0.0, max_iter=20, seed=seed)
    return {"spec": spec, "cfg": cfg}


def _magnetic_run(inputs: dict, scratch: str) -> dict:
    spec, cfg = inputs["spec"], inputs["cfg"]
    state = magrhf.scf.scf_solve(spec, cfg)
    m = density_mod.magnetisation(state.gamma)
    m_perp2 = magrhf.fields.helmholtz_project(m, zero_mean=True).square_integral()
    return {
        "energy": state.energy.total,
        "history": list(state.energy_history),
        "slack": cfg.energy_slack_rel,
        "linear_response": -0.5 * math.pi * spec.alpha**2 * m_perp2,
        "field_raw": state.A.field_energy_raw,
    }


def _magnetic_check(out: dict) -> list:
    fails = []
    hist, slack = out["history"], out["slack"]
    rises = [i for i in range(1, len(hist)) if hist[i] > hist[i - 1] + slack * max(abs(hist[i - 1]), 1.0)]
    if rises:
        fails.append(f"energy history rises at iterations {rises}")
    delta = out["energy"] - E_H_CELL12_N24
    ratio = delta / out["linear_response"]
    if not (delta < 0.0 and abs(ratio - 1.0) <= LINEAR_RESPONSE_RTOL):
        fails.append(
            f"Delta E = {delta:.4e} vs linear response {out['linear_response']:.4e} (ratio {ratio:.4f})"
        )
    if not out["field_raw"] > 0.0:
        fails.append("the polarised state carries no field")
    return fails


# --------------------------------------------------------------------------
# analytic: zero modes, threshold bounds, Thomas-Fermi chain
# --------------------------------------------------------------------------

ZS = (1.0, 2.0, 8.0)


def _analytic_setup(seed: int) -> dict:
    v = np.random.default_rng(seed).standard_normal(3)
    w = [float(c) for c in v / np.linalg.norm(v)]
    zm = {"zero_mode": {"spin_direction": w}}
    family = magrhf.zeromodes.loss_yau(w)  # runs the radial base quadrature once
    return {
        "family": family,
        "cfg": _config(seed, zm),
        "scan": [_config(seed, {**zm, "system": {"nuclei": [{"z": z, "R": [6.0, 6.0, 6.0]}]}}) for z in ZS],
    }


def _analytic_run(inputs: dict, scratch: str) -> dict:
    cfg = inputs["cfg"]
    zero = magrhf.cli.run("zero-mode", cfg)
    beta = magrhf.cli.run("beta-bound", cfg)
    alpha_c = magrhf.cli.run("alpha-c", cfg)
    scans = [magrhf.cli.run("instability-scan", c) for c in inputs["scan"]]
    tf = magrhf.cli.run("tf-bound", cfg)

    cell = Cell(cfg.zero_mode.box_L, int(cfg.zero_mode.box_ns[0]))
    psi, pot = magrhf.zeromodes.sample_on_cell(inputs["family"], cell)
    gamma = density_mod.DensityMatrix((psi.normalized(),), np.array([1.0]))
    audit = density_mod.kinetic_inequality_report(gamma, pot)

    lower = {z: b for z, b, _ in tf.tables["bounds"][1]}
    return {
        "residuals": {n: r for n, r in zero.tables["residuals"][1]},
        "residual_monotone": zero.converged,
        "alpha_c": {z: a for z, _, _, a in alpha_c.tables["alpha_c"][1]},
        "beta_upper": {z: b for z, _, b in beta.tables["beta"][1]},
        "beta_lower": lower,
        "kkt": tf.results["kkt_residual"]["value"],
        "tf_energy": tf.results["I_TF"]["value"],
        "audit_ok": bool(audit["lieb_thirring_ok"] and audit["hoffmann_ostenhof_ok"] and audit["sobolev_ok"]),
        "scans": [(s.results["unstable"], s.results["alpha"]["value"], s.results["alpha_c_upper_bound"]["value"])
                  for s in scans],
    }


def _analytic_check(out: dict) -> list:
    fails = []
    ac = out["alpha_c"][1.0]
    if abs(ac - ALPHA_C_Z1) > 1e-9 * ALPHA_C_Z1:
        fails.append(f"alpha_c(z=1) = {ac!r}, expected pi*sqrt(3/2) = {ALPHA_C_Z1!r}")
    if not out["kkt"] <= 1e-7:
        fails.append(f"TF KKT residual {out['kkt']:.3e} above 1e-7")
    for z in ZS:
        lo, hi = out["beta_lower"][z], out["beta_upper"][z]
        if not lo <= hi < 0.0:
            fails.append(f"beta sandwich fails at z={z}: {lo!r} <= {hi!r} < 0")
    if not out["residual_monotone"]:
        fails.append("zero-mode residual does not decrease over the grid ladder")
    if not out["audit_ok"]:
        fails.append("kinetic inequality violated on the sampled zero mode")
    for unstable, alpha, alpha_c in out["scans"]:
        if unstable != (alpha > alpha_c):
            fails.append(f"instability flag {unstable} disagrees with alpha={alpha} vs alpha_c={alpha_c}")
    return fails


def _analytic_fingerprint(out: dict) -> list:
    return [*out["residuals"].values(), out["tf_energy"], out["kkt"], *out["beta_upper"].values()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scf-default", _scf_default_setup, _scf_default_run, _scf_default_check,
                 lambda out: [out["energy"], out["fermi"], out["iterations"]], (4, 2, 24, 24, 24)),
        Workload("pinned-oracle", _pinned_setup, _pinned_run, _pinned_check,
                 lambda out: [out["energy"], out["ref_energy"]], (5, 2, 20, 20, 20)),
        Workload("magnetic-polarised", _magnetic_setup, _magnetic_run, _magnetic_check,
                 lambda out: [*out["history"], out["field_raw"]], (4, 2, 24, 24, 24)),
        Workload("analytic", _analytic_setup, _analytic_run, _analytic_check, _analytic_fingerprint,
                 (1, 2, 96, 96, 96),
                 layer_values=lambda out: {"zeromodes.residual_n96": out["residuals"].get(96, 0.0)}),
    )
}

