"""Config parsing and serialisation, result records, binary checkpoints."""

import json
import os
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from magrhf.density import DensityMatrix
from magrhf.fields import Cell, SpinorField, VectorField
from magrhf.hamiltonian import MagneticPotential, Nucleus, SystemSpec
from magrhf.runio import (
    CheckpointError,
    ConfigError,
    ResultRecord,
    RunConfig,
    SCFSettings,
    checkpoint_load,
    checkpoint_save,
    config_hash,
    parse_config,
    serialize_config,
)
from magrhf.scf import SCFConfig, SCFState, scf_solve


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
    # one mixing fraction; the eigensolver cap, the lagged field solves and the
    # Anderson depth are constants
    for key in ("mix_rho", "mix_A", "eig_maxiter", "a_inner_iters", "anderson_depth"):
        with pytest.raises(ConfigError, match=f"unknown key 'scf.{key}'"):
            parse_config(json.dumps({"scf": {key: 1}}))


def test_type_and_physics_validation():
    with pytest.raises(ConfigError):
        parse_config('{"system": {"alpha": -0.5}}')
    with pytest.raises(ConfigError):
        parse_config('{"system": {"alpha": "big"}}')
    with pytest.raises(ConfigError):
        parse_config('{"scf": {"mix": 2.0}}')
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


@pytest.mark.parametrize(
    "key, doc",
    [
        ("system.alpha", '{"system": {"alpha": NaN}}'),
        ("system.nuclei[0].z", '{"system": {"nuclei": [{"z": NaN}]}}'),
        ("system.cell.L", '{"system": {"cell": {"L": Infinity}}}'),
        ("zero_mode.dilation", '{"zero_mode": {"dilation": NaN}}'),
        ("scf.energy_floor", '{"scf": {"energy_floor": NaN}}'),
        ("system.N", '{"system": {"N": NaN}}'),
        pytest.param("scf.energy_floor", '{"scf": {"energy_floor": -1%s}}' % ("0" * 400), id="beyond-float"),
    ],
)
def test_non_finite_numbers_are_refused(key, doc):
    # JSON's NaN and Infinity tokens parse, as does an integer beyond the float
    # range; each is refused with its key path
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected a finite number, got -?(nan|inf)$"):
        parse_config(doc)


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
                "mix": float(rng.uniform(0.1, 1.0)),
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


def test_scf_settings_mirror_scf_config():
    # every CLI setting is a library knob with the library's default, except tol
    library = {f.name: f.default for f in fields(SCFConfig)}
    for f in fields(SCFSettings):
        assert f.name in library, f.name
        if f.name != "tol":
            assert f.default == library[f.name], f.name
    assert (SCFSettings().tol, SCFConfig().tol) == (1e-7, 1e-8)


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


def _clone(spec, state, data, orbitals=None) -> SCFState:
    """An equivalent state container rebuilt from loaded checkpoint data."""
    orbitals = data.orbitals if orbitals is None else orbitals
    gamma = DensityMatrix(tuple(SpinorField(spec.cell, v) for v in orbitals), data.occupations)
    pot = MagneticPotential(VectorField(spec.cell, data.A_values), check_gauge=False)
    return SCFState(
        spec=spec,
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
    )


def test_checkpoint_roundtrip_byte_identical(tmp_path, small_state):
    spec, state = small_state
    p1, p2, p3, p4 = (os.path.join(tmp_path, f"{c}.ckpt") for c in "abcd")
    checkpoint_save(state, p1)
    data = checkpoint_load(p1)
    assert data.alpha == spec.alpha
    # reconstruct an equivalent state container and save again
    checkpoint_save(_clone(spec, state, data), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    # a negative zero survives save -> load -> save, in either part: phases
    # make the largest-modulus entry (never zero, unlike a fixed entry of the
    # spin-down orbital phi (x) down) real in orbital 0 and imaginary in
    # orbital 1, and the vanishing part of each is then set to -0.0
    signed = data.orbitals.copy()
    i0, i1 = ((k,) + np.unravel_index(np.argmax(np.abs(signed[k])), signed[k].shape) for k in (0, 1))
    v0, v1 = signed[i0], signed[i1]
    signed[0] *= abs(v0) / v0
    signed[1] *= 1j * abs(v1) / v1
    signed[i0] = complex(abs(v0), -0.0)
    signed[i1] = complex(-0.0, abs(v1))
    checkpoint_save(_clone(spec, state, data, signed), p3)
    again = checkpoint_load(p3)
    assert np.signbit(again.orbitals[i0].imag)
    assert np.signbit(again.orbitals[i1].real)
    checkpoint_save(_clone(spec, state, again), p4)
    assert open(p3, "rb").read() == open(p4, "rb").read()


def test_checkpoint_header_and_errors(tmp_path, small_state):
    _, state = small_state
    path = os.path.join(tmp_path, "c.ckpt")
    checkpoint_save(state, path)
    blob = open(path, "rb").read()
    assert blob[:5] == b"MRHF2"
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
    # another molecule on the same cell: other charges, positions or N
    for nuclei, N in (
        ((Nucleus(2.0, (4.0,) * 3),), 2.0),
        ((Nucleus(1.0, (4.0, 4.0, 4.5)),), 1.0),
        ((Nucleus(1.0, (2.0,) * 3), Nucleus(1.0, (6.0,) * 3)), 1.0),
        (spec.nuclei, 0.5),
    ):
        with pytest.raises(CheckpointError, match="nuclei"):
            data.initial_for(SystemSpec(spec.cell, nuclei, N=N, alpha=0.05))
    # the coupling is not part of the system check: alpha scans warm-start across it
    gamma, pot = data.initial_for(SystemSpec(spec.cell, spec.nuclei, N=1.0, alpha=0.1))
    assert np.array_equal(gamma.block, data.orbitals) and np.shares_memory(gamma.block, data.orbitals)
    assert np.array_equal(pot.A.values, data.A_values)
    # a corrupt orbital block is a checkpoint error, not a bare ValueError;
    # the state above adopted the loaded block, so a copy is corrupted
    data.orbitals = data.orbitals.copy()
    data.orbitals[0] *= 2.0
    with pytest.raises(CheckpointError, match="orthonormal"):
        data.initial_for(spec)


def test_checkpoint_mode_byte_comes_from_the_system(tmp_path, small_state):
    # the mode byte (after the magic, version, L, n and n_orbitals) is the system's
    spec, state = small_state
    path = os.path.join(tmp_path, "m.ckpt")
    checkpoint_save(state, path)
    periodic = SystemSpec(spec.cell, spec.nuclei, N=1.0, alpha=0.05, mode="periodic")
    checkpoint_save(_clone(periodic, state, checkpoint_load(path)), path)
    at = 5 + struct.calcsize("<IdII")
    assert open(path, "rb").read()[at] == 1
    assert checkpoint_load(path).mode == "periodic"


def test_checkpoint_with_nan_occupations_is_refused(tmp_path, small_state):
    spec, state = small_state
    path = os.path.join(tmp_path, "nan.ckpt")
    checkpoint_save(state, path)
    blob = bytearray(open(path, "rb").read())
    at = 5 + struct.calcsize("<IdIIBddI") + 32  # the first occupation, after the header and digest
    blob[at : at + 8] = struct.pack("<d", float("nan"))
    open(path, "wb").write(bytes(blob))
    data = checkpoint_load(path)
    assert np.isnan(data.occupations[0])
    with pytest.raises(CheckpointError, match="finite"):
        data.initial_for(spec)


def test_checkpoint_writes_the_block_in_place(tmp_path):
    # the orbital block goes to the file from the state's own memory: no stack
    # of the orbitals, and no bytes copy of it or of the whole file
    spec = SystemSpec(Cell(12.0, 24), (Nucleus(1.0, (6.0,) * 3),), N=1.0, alpha=0.02)
    state = scf_solve(spec, SCFConfig(tol=1e-6, max_iter=30, seed=0))
    path = os.path.join(tmp_path, "h.ckpt")
    tracemalloc.start()
    try:
        checkpoint_save(state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * state.gamma.block.nbytes
    assert np.array_equal(checkpoint_load(path).orbitals, state.gamma.block)


def test_checkpoint_reads_mrhf1(tmp_path, small_state):
    # an MRHF1 file is an MRHF2 file with version 1 and no system digest
    spec, state = small_state
    path, old = os.path.join(tmp_path, "v2.ckpt"), os.path.join(tmp_path, "v1.ckpt")
    checkpoint_save(state, path)
    blob = open(path, "rb").read()
    header_end = 5 + struct.calcsize("<IdIIBddI")
    open(old, "wb").write(b"MRHF1" + struct.pack("<I", 1) + blob[9:header_end] + blob[header_end + 32 :])
    new, data = checkpoint_load(path), checkpoint_load(old)
    assert data.system is None and len(new.system) == 32
    assert np.array_equal(data.orbitals, new.orbitals) and np.array_equal(data.A_values, new.A_values)
    assert (data.alpha, data.fermi_energy, data.iteration) == (new.alpha, new.fermi_energy, new.iteration)
    # with no digest to compare, another molecule on the same cell is not rejected
    data.initial_for(SystemSpec(spec.cell, (Nucleus(2.0, (4.0,) * 3),), N=2.0, alpha=0.05))
    # a version that does not match its magic is rejected
    bad = os.path.join(tmp_path, "v12.ckpt")
    open(bad, "wb").write(b"MRHF1" + blob[5:])
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_load(bad)



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
