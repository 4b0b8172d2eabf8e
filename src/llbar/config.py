"""Run configuration: flat INI sections, itemized validation, presets.

A run file has five sections --- [grid], [params], [integrator],
[initial], [output] --- with decimal numbers (scientific notation fine)
and comma-separated tuples.  Validation never stops at the first
problem: every offending section/key is reported in one shot.  The
[params] section takes either the five betas or the four physical
inputs, never both.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import GridSpec, SpectralField
from .galerkin import LLBarParams, project
from .operators import padded_sup
from .stepping import IntegratorPolicy

__all__ = [
    "ConfigError",
    "InitialSpec",
    "RunConfig",
    "parse_config",
    "apply_overrides",
    "build_initial",
]

INITIAL_KINDS = ("constant", "eigenmode", "random_band", "file")

_SECTION_KEYS = {
    "grid": {"extents", "points", "dealias_pad", "modes"},
    "params": {
        "beta1", "beta2", "beta3", "beta4", "beta5",
        "lambda_r", "lambda_e", "chi", "gamma",
    },
    "integrator": {"scheme", "dt", "t_end", "max_steps", "blowup_threshold"},
    "initial": {
        "kind", "value", "mode", "amplitude", "direction", "decay",
        "path", "seed", "normalize_linf",
    },
    "output": {"directory", "cadence", "prefix"},
}

_BETA_KEYS = ("beta1", "beta2", "beta3", "beta4", "beta5")
_PHYSICAL_KEYS = ("lambda_r", "lambda_e", "chi", "gamma")


class ConfigError(ValueError):
    """Carries the full list of itemized configuration problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class InitialSpec:
    """Initial-condition preset prior to projection onto the band."""

    kind: str
    value: tuple[float, ...] | None = None
    mode: tuple[int, ...] | None = None
    amplitude: float = 1.0
    direction: tuple[float, ...] | None = None
    decay: float = 0.0
    path: str | None = None
    seed: int = 0
    normalize_linf: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in INITIAL_KINDS:
            raise ValueError(
                f"kind must be one of {', '.join(INITIAL_KINDS)}, got {self.kind!r}"
            )
        numbers = ("value", "amplitude", "direction", "decay", "normalize_linf")
        given = {name: getattr(self, name) for name in numbers}
        bad = [f"{k} = {v}" for k, v in given.items() if v is not None and not np.isfinite(v).all()]
        if bad:
            raise ValueError(f"must be finite: {', '.join(bad)}")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    modes: tuple[int, ...]
    params: LLBarParams
    policy: IntegratorPolicy
    initial: InitialSpec
    directory: str
    prefix: str
    cadence: int


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        value = float(part)
        if value != int(value):
            raise ValueError(f"expected integer, got {part.strip()!r}")
        out.append(int(value))
    return tuple(out)


class _Collector:
    """Typed getters that accumulate problems instead of raising."""

    def __init__(self, raw: dict[str, dict[str, str]]):
        self.raw = raw
        self.problems: list[str] = []

    def complain(self, section: str, key: str | None, message: str) -> None:
        where = f"[{section}] {key}" if key else f"[{section}]"
        self.problems.append(f"{where}: {message}")

    def get(self, section, key, parse, default=None, required=False):
        text = self.raw.get(section, {}).get(key)
        if text is None:
            if required:
                self.complain(section, key, "required key is missing")
            return default
        try:
            return parse(text)
        except (ValueError, OverflowError) as err:
            self.complain(section, key, str(err) or f"cannot parse {text!r}")
            return default


def apply_overrides(
    raw: dict[str, dict[str, str]], overrides: list[str]
) -> list[str]:
    """Apply ``section.key=value`` pairs in place; returns problem strings."""
    problems = []
    for item in overrides:
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            problems.append(
                f"override {item!r}: expected the form section.key=value"
            )
            continue
        section, _, key = head.partition(".")
        if section not in _SECTION_KEYS:
            problems.append(f"override {item!r}: unknown section [{section}]")
            continue
        if key not in _SECTION_KEYS[section]:
            problems.append(f"override {item!r}: unknown key [{section}] {key}")
            continue
        raw.setdefault(section, {})[key] = value
    return problems


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Validate a run file (plus overrides) into a RunConfig.

    Raises :class:`ConfigError` listing every problem found, each tagged
    with its section and key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError([f"syntax: {err}"]) from err
    raw = {s: dict(parser.items(s)) for s in parser.sections()}

    problems: list[str] = []
    problems += apply_overrides(raw, overrides or [])
    for section in _SECTION_KEYS:
        if section not in raw:
            problems.append(f"[{section}]: required section is missing")
    for section, entries in raw.items():
        if section not in _SECTION_KEYS:
            problems.append(f"[{section}]: unknown section")
            continue
        for key in entries:
            if key not in _SECTION_KEYS[section]:
                problems.append(f"[{section}] {key}: unknown key")
    if problems:
        # structural problems make the typed pass unreliable; stop here
        raise ConfigError(problems)

    col = _Collector(raw)

    extents = col.get("grid", "extents", _floats, required=True)
    points = col.get("grid", "points", _ints, required=True)
    pad = col.get("grid", "dealias_pad", int, default=2)
    modes = col.get("grid", "modes", _ints)
    grid = None
    if extents is not None and points is not None:
        try:
            grid = GridSpec(extents=extents, points=points, dealias_pad=pad)
        except ValueError as err:
            col.complain("grid", None, str(err))
    if grid is not None:
        modes = grid.points if modes is None else modes
        if len(modes) != grid.dim:
            col.complain("grid", "modes", f"{len(modes)} counts for a {grid.dim}-d grid")
        for j, (m, n) in enumerate(zip(modes, grid.points)):
            if not 1 <= m <= n:
                col.complain("grid", "modes", f"{m} modes along axis {j}, outside [1, {n}]")

    given_betas = [k for k in _BETA_KEYS if "params" in raw and k in raw["params"]]
    given_phys = [k for k in _PHYSICAL_KEYS if "params" in raw and k in raw["params"]]
    params = None
    if given_betas and given_phys:
        col.complain(
            "params", None,
            "provide exactly one of the beta set or the physical set, not both",
        )
    elif given_phys:
        values = [col.get("params", k, float, required=True) for k in _PHYSICAL_KEYS]
        if None not in values:
            try:
                params = LLBarParams.from_physical(*values)
            except ValueError as err:
                col.complain("params", None, str(err))
    elif given_betas:
        values = [col.get("params", k, float, required=True) for k in _BETA_KEYS]
        if None not in values:
            try:
                params = LLBarParams(*values)
            except ValueError as err:
                col.complain("params", None, str(err))
    else:
        col.complain(
            "params", None,
            "provide either beta1..beta5 or lambda_r, lambda_e, chi, gamma",
        )

    dt = col.get("integrator", "dt", float, required=True)
    t_end = col.get("integrator", "t_end", float, required=True)
    scheme = col.get("integrator", "scheme", str, default="ETDRK2")
    max_steps = col.get("integrator", "max_steps", int, default=1_000_000)
    threshold = col.get("integrator", "blowup_threshold", float, default=1e6)
    policy = None
    if dt is not None and t_end is not None:
        try:
            policy = IntegratorPolicy(
                dt=dt, t_end=t_end, scheme=scheme,
                max_steps=max_steps, blowup_threshold=threshold,
            )
        except ValueError as err:
            col.complain("integrator", None, str(err))

    kind = col.get("initial", "kind", str, required=True)
    initial = None
    if kind is not None:
        if kind not in INITIAL_KINDS:
            col.complain(
                "initial", "kind",
                f"must be one of {', '.join(INITIAL_KINDS)}, got {kind!r}",
            )
        else:
            required = {
                "constant": ["value"],
                "eigenmode": ["mode"],
                "random_band": [],
                "file": ["path"],
            }[kind]
            for key in required:
                if key not in raw["initial"]:
                    col.complain("initial", key, f"required for kind={kind}")
            norm_target = col.get("initial", "normalize_linf", float)
            if norm_target is not None and norm_target <= 0.0:
                col.complain("initial", "normalize_linf", "target must be positive")
            try:
                initial = InitialSpec(
                    kind=kind,
                    value=col.get("initial", "value", _floats),
                    mode=col.get("initial", "mode", _ints),
                    amplitude=col.get("initial", "amplitude", float, default=1.0),
                    direction=col.get("initial", "direction", _floats),
                    decay=col.get("initial", "decay", float, default=0.0),
                    path=col.get("initial", "path", str),
                    seed=col.get("initial", "seed", int, default=0),
                    normalize_linf=norm_target,
                )
            except ValueError as err:
                col.complain("initial", None, str(err))
    if initial is not None and initial.value is not None and len(initial.value) != 3:
        col.complain("initial", "value", "needs exactly three components")
    if initial is not None and initial.direction is not None and len(initial.direction) != 3:
        col.complain("initial", "direction", "needs exactly three components")

    directory = col.get("output", "directory", str, required=True)
    cadence = col.get("output", "cadence", int, default=1)
    prefix = col.get("output", "prefix", str, default="state")
    if cadence is not None and cadence < 1:
        col.complain("output", "cadence", f"must be at least 1, got {cadence}")

    if col.problems:
        raise ConfigError(col.problems)
    return RunConfig(
        grid=grid,
        modes=modes,
        params=params,
        policy=policy,
        initial=initial,
        directory=directory,
        prefix=prefix,
        cadence=cadence,
    )


def build_initial(spec: InitialSpec, grid: GridSpec, modes: tuple[int, ...]) -> SpectralField:
    """Realize an initial-condition preset as a coefficient field on ``modes``."""
    coeffs = np.zeros((3,) + modes)
    if spec.kind == "constant":
        zero = (0,) * grid.dim
        weight = float(np.sqrt(np.prod(grid.extents)))
        for comp in range(3):
            coeffs[(comp, *zero)] = spec.value[comp] * weight
    elif spec.kind == "eigenmode":
        if len(spec.mode) != grid.dim:
            raise ValueError(
                f"mode has {len(spec.mode)} indices for a {grid.dim}-d grid"
            )
        if any(not 0 <= k < m for k, m in zip(spec.mode, modes)):
            raise ValueError(
                f"mode {spec.mode} lies outside the retained band {modes}"
            )
        direction = np.asarray(
            spec.direction if spec.direction is not None else (1.0, 0.0, 0.0)
        )
        length = float(np.sqrt((direction**2).sum()))
        if length == 0.0:
            raise ValueError("direction must be a nonzero vector")
        coeffs[(slice(None), *spec.mode)] = spec.amplitude * direction / length
    elif spec.kind == "random_band":
        drawn = fields.random_field(
            grid, modes, seed=spec.seed,
            decay=spec.decay, amplitude=spec.amplitude,
        )
        coeffs = drawn.coeffs
    else:  # file
        u = fields.read_snapshot(spec.path, dealias_pad=grid.dealias_pad)
        same_points = u.grid.points == grid.points
        same_extents = np.allclose(u.grid.extents, grid.extents, rtol=0, atol=1e-12)
        if not (same_points and same_extents):
            raise ValueError(
                f"snapshot grid {u.grid.points}/{u.grid.extents} does not "
                f"match the configured grid {grid.points}/{grid.extents}"
            )
        coeffs = project(fields.forward(u), modes).coeffs
    field = SpectralField(grid=grid, modes=modes, coeffs=coeffs)
    if spec.normalize_linf is not None:
        current = padded_sup(field)
        if current <= 0.0:
            raise ValueError("cannot normalize a vanishing field")
        field = SpectralField(
            grid=grid, modes=modes,
            coeffs=field.coeffs * (spec.normalize_linf / current),
        )
    return field
