"""Run configuration, result records and binary checkpoints.

Configurations are nested JSON documents; parsing fills documented
defaults, rejects unknown keys with the offending path named, and
validates the physical fields.  Result records are JSON with every
number tagged by its unit, plus CSV tables for scans; both carry the
hash of the canonical config so outputs are traceable to inputs.
Checkpoints are a fixed little-endian binary format so that
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field, fields as dc_fields, replace

import numpy as np

from .fields import Cell, VectorField
from .hamiltonian import Nucleus, SystemSpec
from .scf import SCFConfig, SCFState

__all__ = [
    "ConfigError",
    "CheckpointError",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
    "ResultRecord",
    "checkpoint_save",
    "checkpoint_load",
    "CheckpointData",
]


class ConfigError(ValueError):
    """Malformed or physically invalid run configuration."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupted or incompatible checkpoint file."""


# --------------------------------------------------------------------------
# configuration schema
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CellConfig:
    L: float = 12.0
    n: int = 32


@dataclass(frozen=True)
class NucleusConfig:
    z: float = 1.0
    R: tuple[float, float, float] = (6.0, 6.0, 6.0)


@dataclass(frozen=True)
class SystemConfig:
    mode: str = "molecular"
    cell: CellConfig = field(default_factory=CellConfig)
    nuclei: tuple[NucleusConfig, ...] = (NucleusConfig(),)
    N: float = 1.0
    alpha: float = 0.02


@dataclass(frozen=True)
class SCFSettings:
    max_iter: int = 80
    tol: float = 1e-7
    mix_rho: float = 0.6
    mix_A: float = 0.6
    eig_block: int | None = None
    eig_tol: float | None = None
    eig_maxiter: int = 300
    deg_threshold: float = 1e-6
    anderson_depth: int = 0
    pin_A: bool = False
    s_nuc: float | None = None
    energy_floor: float = -1.0e4
    a_inner_iters: int = 2


@dataclass(frozen=True)
class ScanConfig:
    alphas: tuple[float, ...] = ()
    lambdas: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    zs: tuple[float, ...] = (1.0, 2.0, 8.0)
    epsilon_points: int = 100001


@dataclass(frozen=True)
class ConstantsConfig:
    C_LT: float | None = None
    C2: float | None = None
    C_sobolev: float | None = None


@dataclass(frozen=True)
class ZeroModeSettings:
    spin_direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    dilation: float = 1.0
    box_L: float = 40.0
    box_ns: tuple[int, ...] = (48, 64, 96)


@dataclass(frozen=True)
class TFSettings:
    r_min: float = 1e-5
    r_max: float = 1e3
    points: int = 4096
    tol: float = 1e-7


@dataclass(frozen=True)
class OutputConfig:
    out_dir: str = "."


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    scf: SCFSettings = field(default_factory=SCFSettings)
    scan: ScanConfig = field(default_factory=ScanConfig)
    constants: ConstantsConfig = field(default_factory=ConstantsConfig)
    zero_mode: ZeroModeSettings = field(default_factory=ZeroModeSettings)
    tf: TFSettings = field(default_factory=TFSettings)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    # ---- domain-object builders ------------------------------------
    def cell(self) -> Cell:
        return Cell(self.system.cell.L, self.system.cell.n)

    def system_spec(self, mode: str | None = None) -> SystemSpec:
        sysc = self.system
        return SystemSpec(
            cell=self.cell(),
            nuclei=tuple(Nucleus(nc.z, nc.R) for nc in sysc.nuclei),
            N=sysc.N,
            alpha=sysc.alpha,
            mode=mode or sysc.mode,
        )

    def scf_config(self) -> SCFConfig:
        s = self.scf
        return SCFConfig(
            max_iter=s.max_iter,
            tol=s.tol,
            mix_rho=s.mix_rho,
            mix_A=s.mix_A,
            eig_block=s.eig_block,
            eig_tol=s.eig_tol,
            eig_maxiter=s.eig_maxiter,
            deg_threshold=s.deg_threshold,
            seed=self.seed,
            anderson_depth=s.anderson_depth,
            pin_A=s.pin_A,
            s_nuc=s.s_nuc,
            energy_floor=s.energy_floor,
            a_inner_iters=s.a_inner_iters,
        )


_TUPLE_FIELDS = {"R", "spin_direction"}


def _build(cls, data, path):
    """Recursively build a config dataclass from a JSON-shaped dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
    spec = {f.name: f for f in dc_fields(cls)}
    unknown = set(data) - set(spec)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{path + '.' if path else ''}{name}'")
    kwargs = {}
    for name, f in spec.items():
        if name not in data:
            continue
        val = data[name]
        sub = f"{path}.{name}" if path else name
        kwargs[name] = _convert(f.type, val, sub)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _convert(ftype, val, path):
    ftype_s = str(ftype)
    if ftype_s.startswith("CellConfig"):
        return _build(CellConfig, val, path)
    if ftype_s.startswith("SystemConfig"):
        return _build(SystemConfig, val, path)
    if ftype_s.startswith("SCFSettings"):
        return _build(SCFSettings, val, path)
    if ftype_s.startswith("ScanConfig"):
        return _build(ScanConfig, val, path)
    if ftype_s.startswith("ConstantsConfig"):
        return _build(ConstantsConfig, val, path)
    if ftype_s.startswith("ZeroModeSettings"):
        return _build(ZeroModeSettings, val, path)
    if ftype_s.startswith("TFSettings"):
        return _build(TFSettings, val, path)
    if ftype_s.startswith("OutputConfig"):
        return _build(OutputConfig, val, path)
    if "NucleusConfig" in ftype_s:
        if not isinstance(val, list):
            raise ConfigError(f"{path}: expected a list of nuclei")
        return tuple(_build(NucleusConfig, v, f"{path}[{i}]") for i, v in enumerate(val))
    if ftype_s.startswith("tuple"):
        if not isinstance(val, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        if "float" in ftype_s:
            return tuple(_as_float(v, path) for v in val)
        if "int" in ftype_s:
            return tuple(_as_int(v, path) for v in val)
        return tuple(val)
    if ftype_s.startswith("float | None") or ftype_s.startswith("int | None"):
        if val is None:
            return None
        return _as_float(val, path) if "float" in ftype_s else _as_int(val, path)
    if ftype_s == "float":
        return _as_float(val, path)
    if ftype_s == "int":
        return _as_int(val, path)
    if ftype_s == "bool":
        if not isinstance(val, bool):
            raise ConfigError(f"{path}: expected a boolean, got {val!r}")
        return val
    if ftype_s == "str":
        if not isinstance(val, str):
            raise ConfigError(f"{path}: expected a string, got {val!r}")
        return val
    raise ConfigError(f"{path}: unsupported field type {ftype_s}")


def _as_float(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    return float(val)


def _as_int(val, path):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    return int(val)


def _validate_physics(cfg: RunConfig) -> None:
    sysc = cfg.system
    if sysc.mode not in ("molecular", "periodic"):
        raise ConfigError(f"system.mode: must be 'molecular' or 'periodic', got {sysc.mode!r}")
    if sysc.alpha <= 0:
        raise ConfigError(f"system.alpha: must be positive, got {sysc.alpha}")
    if sysc.N <= 0:
        raise ConfigError(f"system.N: must be positive, got {sysc.N}")
    if sysc.cell.L <= 0 or sysc.cell.n < 4 or sysc.cell.n % 2:
        raise ConfigError("system.cell: needs L > 0 and even n >= 4")
    for i, nuc in enumerate(sysc.nuclei):
        if nuc.z < 0:
            raise ConfigError(f"system.nuclei[{i}].z: must be nonnegative, got {nuc.z}")
        if len(nuc.R) != 3:
            raise ConfigError(f"system.nuclei[{i}].R: needs three coordinates")
    if not (0 < cfg.scf.mix_rho <= 1 and 0 < cfg.scf.mix_A <= 1):
        raise ConfigError("scf: mixing parameters must lie in (0, 1]")
    if cfg.scf.tol <= 0:
        raise ConfigError("scf.tol: must be positive")
    if any(z <= 0 for z in cfg.scan.zs):
        raise ConfigError("scan.zs: charges must be positive")
    if cfg.tf.r_min <= 0 or cfg.tf.r_max <= cfg.tf.r_min:
        raise ConfigError("tf: needs 0 < r_min < r_max")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _build(RunConfig, data, "")
    _validate_physics(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON serialisation (sorted keys, stable floats)."""
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# result records
# --------------------------------------------------------------------------


def tagged(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


@dataclass
class ResultRecord:
    """Machine-readable outcome of one run."""

    subcommand: str
    config: RunConfig
    results: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (header, rows)
    converged: bool = True
    flags: tuple[str, ...] = ()
    elapsed_s: float = 0.0
    seed: int = 0

    def to_json(self) -> str:
        doc = {
            "run": {
                "subcommand": self.subcommand,
                "config_hash": config_hash(self.config),
                "seed": self.seed,
                "elapsed": tagged(self.elapsed_s, "second"),
                "converged": self.converged,
                "flags": list(self.flags),
            },
            "config": json.loads(serialize_config(self.config)),
            "results": self.results,
            "residuals": self.residuals,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, out_dir: str) -> list[str]:
        """Write the JSON record plus one CSV per table; returns the paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        record_path = os.path.join(out_dir, f"{self.subcommand}_record.json")
        _atomic_write(record_path, self.to_json())
        paths.append(record_path)
        h = config_hash(self.config)
        for name, (header, rows) in self.tables.items():
            lines = [f"# config_hash={h}", ",".join(header)]
            for row in rows:
                lines.append(",".join(_csv_cell(v) for v in row))
            csv_path = os.path.join(out_dir, f"{self.subcommand}_{name}.csv")
            _atomic_write(csv_path, "\n".join(lines) + "\n")
            paths.append(csv_path)
        return paths


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# binary checkpoints
# --------------------------------------------------------------------------

_MAGIC = b"MRHF1"
_VERSION = 1
_MODES = {"molecular": 0, "periodic": 1}
_MODES_BACK = {v: k for k, v in _MODES.items()}


@dataclass
class CheckpointData:
    """Raw state loaded from disk, ready to warm-start a solve."""

    L: float
    n: int
    mode: str
    alpha: float
    fermi_energy: float
    iteration: int
    occupations: np.ndarray
    orbitals: np.ndarray  # (n_orb, 2, n, n, n) complex
    A_values: np.ndarray  # (3, n, n, n)

    def initial_for(self, spec: SystemSpec) -> tuple[np.ndarray, np.ndarray, VectorField]:
        if abs(spec.cell.L - self.L) > 1e-12 or spec.cell.n != self.n:
            raise CheckpointError(
                f"checkpoint cell (L={self.L}, n={self.n}) does not match the "
                f"configured cell (L={spec.cell.L}, n={spec.cell.n})"
            )
        return self.orbitals, self.occupations, VectorField(spec.cell, self.A_values)


def checkpoint_save(state: SCFState, path: str) -> None:
    """Write the orbital set, occupations and vector potential.

    Layout (little-endian): magic "MRHF1", u32 version, f64 L, u32 n,
    u32 n_orbitals, u8 mode, f64 alpha, f64 fermi_energy, u32 iteration,
    then occupations as f64, orbitals as interleaved re/im f64 in
    C-order (orbital, spin, x, y, z), then the vector potential as f64.
    """
    cell = state.gamma.cell
    n_orb = len(state.gamma.orbitals)
    mode = _MODES.get(state.gamma.mode, 0)
    header = _MAGIC + struct.pack(
        "<IdIIBddI", _VERSION, cell.L, cell.n, n_orb, mode, state.alpha,
        state.fermi_energy, state.iteration,
    )
    occ = np.ascontiguousarray(state.gamma.occupations, dtype="<f8")
    orbs = np.stack([orb.values for orb in state.gamma.orbitals])
    orb_view = np.empty(orbs.shape + (2,), dtype="<f8")
    orb_view[..., 0] = orbs.real
    orb_view[..., 1] = orbs.imag
    a_vals = np.ascontiguousarray(state.A.A.values, dtype="<f8")
    payload = header + occ.tobytes() + orb_view.tobytes() + a_vals.tobytes()
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".ckpt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def checkpoint_load(path: str) -> CheckpointData:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {blob[:5]!r}")
    header_fmt = "<IdIIBddI"
    header_size = struct.calcsize(header_fmt)
    if len(blob) < 5 + header_size:
        raise CheckpointError(f"{path}: truncated header")
    version, L, n, n_orb, mode, alpha, fermi, iteration = struct.unpack(
        header_fmt, blob[5 : 5 + header_size]
    )
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 5 + header_size
    n3 = n**3
    expect = n_orb * 8 + n_orb * 2 * n3 * 16 + 3 * n3 * 8
    if len(blob) != off + expect:
        raise CheckpointError(
            f"{path}: truncated payload ({len(blob) - off} bytes, expected {expect})"
        )
    occ = np.frombuffer(blob, dtype="<f8", count=n_orb, offset=off).copy()
    off += n_orb * 8
    raw = np.frombuffer(blob, dtype="<f8", count=n_orb * 2 * n3 * 2, offset=off)
    raw = raw.reshape(n_orb, 2, n, n, n, 2)
    orbitals = (raw[..., 0] + 1j * raw[..., 1]).copy()
    off += n_orb * 2 * n3 * 16
    a_vals = np.frombuffer(blob, dtype="<f8", count=3 * n3, offset=off).reshape(3, n, n, n).copy()
    return CheckpointData(
        L=L,
        n=n,
        mode=_MODES_BACK.get(mode, "molecular"),
        alpha=alpha,
        fermi_energy=fermi,
        iteration=iteration,
        occupations=occ,
        orbitals=orbitals,
        A_values=a_vals,
    )
