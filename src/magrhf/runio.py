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
import math
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .density import DensityMatrix
from .fields import Cell, VectorField
from .hamiltonian import MagneticPotential, Nucleus, SystemSpec
from .scf import SCFConfig, SCFState
from .tfbound import RadialGrid
from .zeromodes import unit_direction

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

    def __post_init__(self) -> None:
        Cell(self.L, self.n)


@dataclass(frozen=True)
class NucleusConfig:
    z: float = 1.0
    R: tuple[float, float, float] = (6.0, 6.0, 6.0)

    def __post_init__(self) -> None:
        Nucleus(self.z, self.R)


@dataclass(frozen=True)
class SystemConfig:
    mode: str = "molecular"
    cell: CellConfig = field(default_factory=CellConfig)
    nuclei: tuple[NucleusConfig, ...] = (NucleusConfig(),)
    N: float = 1.0
    alpha: float = 0.02

    def __post_init__(self) -> None:
        # the rest of SystemSpec's rules (nuclei inside the cell, a
        # neutral periodic cell) depend on the subcommand's mode and are
        # checked by RunConfig.system_spec
        if self.mode not in ("molecular", "periodic"):
            raise ValueError(f"mode must be 'molecular' or 'periodic', got {self.mode!r}")
        if self.N <= 0:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class SCFSettings:
    """The settable subset of :class:`SCFConfig`; ``tol`` defaults to 1e-7."""

    max_iter: int = 80
    tol: float = 1e-7
    mix: float = 0.6
    eig_block: int | None = None
    eig_tol: float | None = None
    deg_threshold: float = 1e-6
    pin_A: bool = False
    s_nuc: float | None = None
    energy_floor: float = -1.0e4

    def __post_init__(self) -> None:
        SCFConfig(**asdict(self))


@dataclass(frozen=True)
class ScanConfig:
    alphas: tuple[float, ...] = ()
    lambdas: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    zs: tuple[float, ...] = (1.0, 2.0, 8.0)

    def __post_init__(self) -> None:
        if any(z <= 0 for z in self.zs):
            raise ValueError("charges zs must be positive")
        # the rules of instability_scan and scan_alpha, checked before any solve
        for name in ("lambdas", "alphas"):
            values = getattr(self, name)
            if any(v <= 0 for v in values) or any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be positive and strictly ascending")
        if not self.lambdas:
            raise ValueError("lambdas must not be empty")


@dataclass(frozen=True)
class ConstantsConfig:
    C_LT: float | None = None
    C2: float | None = None
    C_sobolev: float | None = None

    def __post_init__(self) -> None:
        for name in ("C_LT", "C2", "C_sobolev"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ZeroModeSettings:
    spin_direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    dilation: float = 1.0
    box_L: float = 40.0
    box_ns: tuple[int, ...] = (48, 64, 96)

    def __post_init__(self) -> None:
        unit_direction(self.spin_direction)
        if self.dilation <= 0:
            raise ValueError(f"dilation must be positive, got {self.dilation}")
        if not self.box_ns:
            raise ValueError("box_ns must not be empty")
        if any(b <= a for a, b in zip(self.box_ns, self.box_ns[1:])):  # the ladder's residuals must fall
            raise ValueError("box_ns must be strictly ascending")
        for n in self.box_ns:
            Cell(self.box_L, n)


@dataclass(frozen=True)
class TFSettings:
    r_min: float = 1e-5
    r_max: float = 1e3
    points: int = 4096
    tol: float = 1e-7

    def __post_init__(self) -> None:
        RadialGrid(self.r_min, self.r_max, self.points)


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

    def __post_init__(self) -> None:
        self.scf_config().check_block(self.system.N)

    def system_spec(self, mode: str | None = None) -> SystemSpec:
        sysc = self.system
        try:
            return SystemSpec(
                cell=Cell(sysc.cell.L, sysc.cell.n),
                nuclei=tuple(Nucleus(nc.z, nc.R) for nc in sysc.nuclei),
                N=sysc.N,
                alpha=sysc.alpha,
                mode=mode or sysc.mode,
            )
        except ValueError as exc:
            raise ConfigError(f"system: {exc}") from exc

    def scf_config(self) -> SCFConfig:
        return SCFConfig(seed=self.seed, **asdict(self.scf))


def _build(tp, val, path: str):
    """Build a value of the annotated type ``tp`` from its JSON form.

    Dataclasses come from mappings with no unknown keys, tuples from
    lists (of exactly the annotated length unless ``tuple[X, ...]``),
    ``X | None`` also from null, numbers only if finite; a dataclass's
    own ``ValueError`` becomes a :class:`ConfigError` naming its path.
    """
    where = path or "config"
    if is_dataclass(tp):
        if not isinstance(val, dict):
            raise ConfigError(f"{where}: expected a mapping, got {type(val).__name__}")
        hints = get_type_hints(tp)
        unknown = sorted(set(val) - hints.keys())
        if unknown:
            raise ConfigError(f"unknown key '{path + '.' if path else ''}{unknown[0]}'")
        kwargs = {k: _build(hints[k], v, f"{path}.{k}" if path else k) for k, v in val.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    args = get_args(tp)
    if get_origin(tp) is UnionType:  # X | None
        return None if val is None else _build(args[0], val, path)
    if get_origin(tp) is tuple:
        if not isinstance(val, list):
            raise ConfigError(f"{path}: expected a list, got {val!r}")
        types = args[:1] * len(val) if args[-1] is Ellipsis else args
        if len(val) != len(types):
            raise ConfigError(f"{path}: expected {len(types)} entries, got {len(val)}")
        return tuple(_build(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, val)))
    # JSON true/false are not numbers, and a float field also takes an integer
    accepted = (int, float) if tp is float else tp
    if isinstance(val, accepted) and (tp is bool or not isinstance(val, bool)):
        try:
            val = tp(val)
        except OverflowError:  # an integer literal beyond the float range
            val = math.inf if val > 0 else -math.inf
        if tp is float and not math.isfinite(val):
            raise ConfigError(f"{path}: expected a finite number, got {val!r}")
        return val
    raise ConfigError(f"{path}: expected {_TYPE_NAMES[tp]}, got {val!r}")


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _build(RunConfig, data, "")


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


def _atomic_write(path: str, *parts: str | bytes | np.ndarray) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w" if isinstance(parts[0], str) else "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# binary checkpoints
# --------------------------------------------------------------------------

_MAGIC = b"MRHF2"
#: the format version each magic carries; MRHF1 has no system digest
_VERSIONS = {b"MRHF1": 1, _MAGIC: 2}
_HEADER = struct.Struct("<IdIIBddI")
_DIGEST_SIZE = hashlib.sha256().digest_size
_MODES = {"molecular": 0, "periodic": 1}
_MODES_BACK = {v: k for k, v in _MODES.items()}


def _system_digest(spec: SystemSpec) -> bytes:
    """SHA-256 of the nuclei (z, R, in order) and N as little-endian f64."""
    values = [v for nuc in spec.nuclei for v in (nuc.z, *nuc.R)] + [spec.N]
    return hashlib.sha256(np.array(values, dtype="<f8").tobytes()).digest()


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
    system: bytes | None  # digest of the nuclei and N; None in an MRHF1 file

    def initial_for(self, spec: SystemSpec) -> tuple[DensityMatrix, MagneticPotential]:
        """The stored ``(gamma, A)`` to warm-start ``scf_solve`` for ``spec``; ``gamma`` adopts :attr:`orbitals`."""
        if abs(spec.cell.L - self.L) > 1e-12 or spec.cell.n != self.n:
            raise CheckpointError(
                f"checkpoint cell (L={self.L}, n={self.n}) does not match the "
                f"configured cell (L={spec.cell.L}, n={spec.cell.n})"
            )
        if spec.mode != self.mode:
            raise CheckpointError(
                f"checkpoint mode {self.mode!r} does not match the configured mode {spec.mode!r}"
            )
        if self.system is not None and self.system != _system_digest(spec):
            raise CheckpointError("checkpoint was written for other nuclei or another electron count N")
        try:
            gamma = DensityMatrix.from_block(spec.cell, self.orbitals, self.occupations)
        except ValueError as exc:
            raise CheckpointError(f"checkpoint state: {exc}") from exc
        return gamma, MagneticPotential(VectorField(spec.cell, self.A_values), check_gauge=False)


def checkpoint_save(state: SCFState, path: str) -> None:
    """Write the orbital set, occupations and vector potential.

    Layout (little-endian): magic "MRHF2", u32 version 2, f64 L, u32 n,
    u32 n_orbitals, u8 mode, f64 alpha, f64 fermi_energy, u32 iteration,
    the 32-byte SHA-256 of the nuclei and N, then occupations as f64,
    orbitals as complex128 (re/im f64 pairs) in C-order (orbital, spin,
    x, y, z), then the vector potential as f64.  An "MRHF1" file
    (version 1) is the same without the digest.
    """
    cell = state.gamma.cell
    n_orb = len(state.gamma.block)
    header = _MAGIC + _HEADER.pack(
        _VERSIONS[_MAGIC], cell.L, cell.n, n_orb, _MODES[state.spec.mode], state.spec.alpha,
        state.fermi_energy, state.iteration,
    ) + _system_digest(state.spec)
    occ = np.ascontiguousarray(state.gamma.occupations, dtype="<f8")
    orbs = np.ascontiguousarray(state.gamma.block, dtype="<c16")  # no copy on a little-endian host
    a_vals = np.ascontiguousarray(state.A.A.values, dtype="<f8")
    _atomic_write(path, header, occ, orbs, a_vals)


def checkpoint_load(path: str) -> CheckpointData:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[: len(_MAGIC)]
    if magic not in _VERSIONS:
        raise CheckpointError(f"{path}: bad magic bytes {magic!r}")
    off = len(_MAGIC) + _HEADER.size
    digest_size = _DIGEST_SIZE if magic == _MAGIC else 0
    if len(blob) < off + digest_size:
        raise CheckpointError(f"{path}: truncated header")
    version, L, n, n_orb, mode, alpha, fermi, iteration = _HEADER.unpack_from(blob, len(_MAGIC))
    if version != _VERSIONS[magic]:
        raise CheckpointError(f"{path}: unsupported version {version}")
    system = blob[off : off + digest_size] if digest_size else None
    off += digest_size
    if mode not in _MODES_BACK:
        raise CheckpointError(f"{path}: unknown mode byte {mode}")
    n3 = n**3
    expect = n_orb * 8 + n_orb * 2 * n3 * 16 + 3 * n3 * 8
    if len(blob) != off + expect:
        raise CheckpointError(
            f"{path}: truncated payload ({len(blob) - off} bytes, expected {expect})"
        )
    occ = np.frombuffer(blob, dtype="<f8", count=n_orb, offset=off).copy()
    off += n_orb * 8
    orbitals = np.frombuffer(blob, dtype="<c16", count=n_orb * 2 * n3, offset=off)
    orbitals = orbitals.reshape(n_orb, 2, n, n, n).copy()
    off += n_orb * 2 * n3 * 16
    a_vals = np.frombuffer(blob, dtype="<f8", count=3 * n3, offset=off).reshape(3, n, n, n).copy()
    return CheckpointData(
        L=L,
        n=n,
        mode=_MODES_BACK[mode],
        alpha=alpha,
        fermi_energy=fermi,
        iteration=iteration,
        occupations=occ,
        orbitals=orbitals,
        A_values=a_vals,
        system=system,
    )
