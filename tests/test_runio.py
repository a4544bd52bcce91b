"""Config parsing and serialisation, result records, binary checkpoints."""

import json
import os
import struct

import numpy as np
import pytest

from magrhf.fields import Cell
from magrhf.hamiltonian import Nucleus, SystemSpec
from magrhf.runio import (
    CheckpointError,
    ConfigError,
    ResultRecord,
    RunConfig,
    checkpoint_load,
    checkpoint_save,
    config_hash,
    parse_config,
    serialize_config,
)
from magrhf.scf import SCFConfig, scf_solve


def test_minimal_config_fills_defaults():
    cfg = parse_config("{}")
    assert cfg.system.mode == "molecular"
    assert cfg.system.cell.n == 32
    assert cfg.scf.max_iter == 80
    assert cfg.seed == 0
    assert cfg.system_spec().Z == 1.0


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="systm"):
        parse_config('{"systm": {}}')
    with pytest.raises(ConfigError, match="system.cell.m"):
        parse_config('{"system": {"cell": {"m": 3}}}')
    with pytest.raises(ConfigError, match=r"system.nuclei\[0\].charge"):
        parse_config('{"system": {"nuclei": [{"charge": 1.0}]}}')
    with pytest.raises(ConfigError, match="unknown key 'scan.epsilon_points'"):
        parse_config('{"scan": {"epsilon_points": 100001}}')


def test_type_and_physics_validation():
    with pytest.raises(ConfigError):
        parse_config('{"system": {"alpha": -0.5}}')
    with pytest.raises(ConfigError):
        parse_config('{"system": {"alpha": "big"}}')
    with pytest.raises(ConfigError):
        parse_config('{"scf": {"mix_rho": 2.0}}')
    with pytest.raises(ConfigError):
        parse_config('{"system": {"cell": {"n": 7}}}')
    with pytest.raises(ConfigError):
        parse_config("not json at all {")
    with pytest.raises(ConfigError, match="system.alpha: expected a number"):
        parse_config('{"system": {"alpha": true}}')
    with pytest.raises(ConfigError, match="scf.eig_block: expected an integer"):
        parse_config('{"scf": {"eig_block": 1.5}}')
    with pytest.raises(ConfigError, match=r"system.nuclei\[0\].R: expected 3 entries"):
        parse_config('{"system": {"nuclei": [{"R": [1.0, 2.0]}]}}')
    with pytest.raises(ConfigError, match="system: "):
        parse_config('{"system": {"nuclei": [{"R": [20.0, 6.0, 6.0]}]}}').system_spec()
    cfg = parse_config('{"scf": {"eig_block": null, "eig_tol": null}, "constants": {"C2": null}}')
    assert cfg == parse_config("{}")


def _random_config(rng) -> RunConfig:
    text = json.dumps(
        {
            "system": {
                "mode": rng.choice(["molecular", "periodic"]),
                "cell": {"L": float(rng.uniform(5, 20)), "n": int(rng.choice([8, 12, 16]))},
                "nuclei": [
                    {"z": float(rng.uniform(0.5, 3.0)), "R": [float(v) for v in rng.uniform(0, 5, 3)]}
                ],
                "N": float(rng.uniform(0.5, 3.0)),
                "alpha": float(rng.uniform(0.01, 1.0)),
            },
            "scf": {
                "max_iter": int(rng.integers(5, 100)),
                "tol": float(rng.uniform(1e-9, 1e-5)),
                "mix_rho": float(rng.uniform(0.1, 1.0)),
                "pin_A": bool(rng.integers(0, 2)),
            },
            "scan": {"zs": [float(v) for v in rng.uniform(0.5, 9, 3)]},
            "seed": int(rng.integers(0, 1000)),
        }
    )
    cfg = parse_config(text)
    if cfg.system.mode == "periodic":
        # force neutrality so system_spec() would also be valid
        z = cfg.system.nuclei[0].z
        cfg = parse_config(text.replace(f'"N": {cfg.system.N}', f'"N": {z}'))
    return cfg


def test_roundtrip_fifty_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cfg = _random_config(rng)
        back = parse_config(serialize_config(cfg))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)


def test_record_write_and_hash(tmp_path):
    cfg = parse_config("{}")
    rec = ResultRecord(subcommand="alpha-c", config=cfg, results={"x": {"value": 1.0, "unit": "hartree"}})
    rec.tables["demo"] = (("a", "b"), [(1, 2.0), (3, 4.0)])
    paths = rec.write(str(tmp_path))
    doc = json.loads(open(paths[0]).read())
    assert doc["run"]["config_hash"] == config_hash(cfg)
    csv = open(paths[1]).read().splitlines()
    assert csv[0] == f"# config_hash={config_hash(cfg)}"
    assert csv[1] == "a,b"


@pytest.fixture(scope="module")
def small_state():
    cell = Cell(8.0, 12)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.05)
    state = scf_solve(spec, SCFConfig(tol=1e-6, pin_A=True, max_iter=30, seed=0))
    return spec, state


def test_checkpoint_roundtrip_byte_identical(tmp_path, small_state):
    spec, state = small_state
    p1 = os.path.join(tmp_path, "a.ckpt")
    p2 = os.path.join(tmp_path, "b.ckpt")
    checkpoint_save(state, p1)
    data = checkpoint_load(p1)
    assert data.alpha == spec.alpha
    # reconstruct an equivalent state container and save again
    from magrhf.density import DensityMatrix
    from magrhf.fields import SpinorField, VectorField
    from magrhf.hamiltonian import MagneticPotential
    from magrhf.scf import SCFState

    gamma = DensityMatrix(
        tuple(SpinorField(spec.cell, v) for v in data.orbitals), data.occupations, mode=data.mode
    )
    pot = MagneticPotential(VectorField(spec.cell, data.A_values), check_gauge=False)
    clone = SCFState(
        gamma=gamma,
        A=pot,
        energy=state.energy,
        levels=state.levels,
        fermi_energy=data.fermi_energy,
        iteration=data.iteration,
        residual_orbital=0.0,
        residual_field=0.0,
        residual_continuity=0.0,
        converged=True,
        alpha=data.alpha,
    )
    checkpoint_save(clone, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_header_and_errors(tmp_path, small_state):
    _, state = small_state
    path = os.path.join(tmp_path, "c.ckpt")
    checkpoint_save(state, path)
    blob = open(path, "rb").read()
    assert blob[:5] == b"MRHF1"
    # corrupt magic
    bad = os.path.join(tmp_path, "bad.ckpt")
    open(bad, "wb").write(b"XXXXX" + blob[5:])
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_load(bad)
    # truncate
    trunc = os.path.join(tmp_path, "short.ckpt")
    open(trunc, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint_load(trunc)
    # unknown mode byte (after the magic, version, L, n and n_orbitals)
    at = 5 + struct.calcsize("<IdII")
    odd = os.path.join(tmp_path, "mode.ckpt")
    open(odd, "wb").write(blob[:at] + bytes([7]) + blob[at + 1 :])
    with pytest.raises(CheckpointError, match="mode"):
        checkpoint_load(odd)


def test_checkpoint_cell_mismatch(tmp_path, small_state):
    spec, state = small_state
    path = os.path.join(tmp_path, "d.ckpt")
    checkpoint_save(state, path)
    data = checkpoint_load(path)
    other = SystemSpec(Cell(9.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.05)
    with pytest.raises(CheckpointError, match="cell"):
        data.initial_for(other)
    periodic = SystemSpec(spec.cell, spec.nuclei, N=1.0, alpha=0.05, mode="periodic")
    with pytest.raises(CheckpointError, match="mode"):
        data.initial_for(periodic)


def test_warm_start_from_converged_checkpoint(tmp_path, small_state):
    spec, state = small_state
    path = os.path.join(tmp_path, "warm.ckpt")
    checkpoint_save(state, path)
    data = checkpoint_load(path)
    warm = scf_solve(
        spec, SCFConfig(tol=1e-6, pin_A=True, max_iter=30, seed=0), initial=data.initial_for(spec)
    )
    assert warm.converged
    assert warm.iteration <= 2
    assert abs(warm.energy.total - state.energy.total) < 1e-8 * abs(state.energy.total)
