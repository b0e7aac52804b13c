"""INI run configuration with a strict schema.

Every key belongs to a fixed section vocabulary; unknown sections or keys
are errors rather than silently ignored, because a typo like ``omgea``
would otherwise run a default sweep and waste the batch.  Missing keys
fall back to documented defaults and the loader records which defaults it
applied so runs are auditable.

Defaults describe the nondimensional reference swimmer: the link length
is the length unit (L = 1) and the middle link's normal drag is the drag
unit (eta2 = 1).  In those units the default drag pattern is
xi = (0.8, 0.5, 0.5) and eta = (2.0, 1.0, 1.0) with unit stiffness and
moment, driven by a unit axial field with a 1e-2 transverse ripple at
unit angular frequency.  Nothing is rescaled internally: outputs are in
whatever units the inputs use.
"""
from __future__ import annotations

import configparser
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .model import (
    Configuration,
    ConstantField,
    FieldProgram,
    SinusoidalField,
    SwimmerParams,
    TabulatedField,
)
from .simulate import _default_dt

__all__ = ["RunConfig", "load_config", "parse_config"]

_OUTPUT_FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description.

    ``dt = auto`` resolves here to the period-based default the run steps
    with.  ``applied_defaults`` lists "section.key" for every value the
    loader filled in.
    """

    params: SwimmerParams
    field: FieldProgram
    initial: Configuration
    dt: float
    t_final: float
    burn_in_periods: int
    measure_periods: int
    omega_min: float
    omega_max: float
    n_grid: int
    output_dir: str
    formats: tuple[str, ...]
    applied_defaults: tuple[str, ...]


def _number(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def _positive(section: str, key: str, raw: str) -> float:
    value = _number(section, key, raw)
    if value <= 0.0:
        raise ConfigError(f"[{section}] {key} must be positive")
    return value


def _step(section: str, key: str, raw: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None
    return _positive(section, key, raw)


def _count(section: str, key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not an integer") from None
    if value <= 0:
        raise ConfigError(f"[{section}] {key} must be positive")
    return value


def _triple(section: str, key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(
            f"[{section}] {key} needs three comma-separated values")
    return tuple(_number(section, key, p) for p in parts)


def _samples(section: str, key: str, raw: str) -> TabulatedField:
    times, hxs, hys = [], [], []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(
                f"[{section}] samples line {lineno}: expected 't hx hy', "
                f"got {line!r}")
        times.append(_number(section, key, parts[0]))
        hxs.append(_number(section, key, parts[1]))
        hys.append(_number(section, key, parts[2]))
    try:
        return TabulatedField(times=times, hx=hxs, hy=hys)
    except ValueError as exc:
        raise ConfigError(f"[{section}] samples: {exc}") from exc


def _formats(section: str, key: str, raw: str) -> tuple[str, ...]:
    formats = tuple(p.strip().lower() for p in raw.split(",") if p.strip())
    if not formats:
        raise ConfigError("[output] formats must name at least one format")
    for fmt in formats:
        if fmt not in _OUTPUT_FORMATS:
            raise ConfigError(
                f"[output] unknown format {fmt!r}; "
                f"choose from {_OUTPUT_FORMATS}")
    if len(set(formats)) != len(formats):
        raise ConfigError("[output] formats lists a format twice")
    return formats


# section -> key -> (parser, default), the whole vocabulary.  A default of
# None makes a key required where it is read; parse_config supplies the
# default of t_final and resolves dt = auto, which depend on the field.
_TABLE = {
    "params": {"L": (_number, "1.0"), "xi": (_triple, "0.8, 0.5, 0.5"),
               "eta": (_triple, "2.0, 1.0, 1.0"), "K": (_number, "1.0"),
               "M": (_number, "1.0")},
    "field": {"kind": (lambda s, k, raw: raw.strip().lower(), "sinusoidal"),
              "hx": (_number, "1.0"), "hy": (_number, "0.0"),
              "hx0": (_number, "1.0"), "epsilon": (_number, "1e-2"),
              "omega": (_number, "1.0"), "samples": (_samples, None)},
    "initial": {key: (_number, "0.0")
                for key in ("x", "y", "theta", "alpha2", "alpha3")},
    "solver": {"dt": (_step, "auto"), "t_final": (_positive, None),
               "burn_in_periods": (_count, "20"),
               "measure_periods": (_count, "1")},
    "analysis": {"omega_min": (_number, "1e-2"),
                 "omega_max": (_number, "1e2"),
                 "n_grid": (_count, "64")},
    "output": {"directory": (lambda s, k, raw: raw, "."),
               "formats": (_formats, "csv")},
}

# each field kind: its constructor and the [field] keys it takes, in order
_FIELD_KINDS = {
    "constant": (ConstantField, ("hx", "hy")),
    "sinusoidal": (SinusoidalField, ("hx0", "epsilon", "omega")),
    "tabulated": (lambda field: field, ("samples",)),
}


def _construct(section: str, build, values: list):
    try:
        return build(*values)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def parse_config(text: str,
                 overrides: Mapping[str, object] | None = None) -> RunConfig:
    """The ``RunConfig`` of INI ``text``, each ``"section.key"`` of
    ``overrides`` set to its value as if the text said so.  Malformed INI,
    an unknown section or key, a value its parser or section rejects, a
    field key the kind does not take, or a missing required key raises
    ``ConfigError``."""
    cp = configparser.ConfigParser(interpolation=None)
    # keep keys case-sensitive so "L" stays "L" and a stray "l" is caught
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for name, value in (overrides or {}).items():
        section, _, key = name.partition(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, str(value))
    for section in cp.sections():
        if section not in _TABLE:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _TABLE[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    defaults: list[str] = []

    def read(section: str, *keys: str, **fallbacks: str) -> list:
        """Parsed values of ``keys``, or of the whole section in table
        order; ``fallbacks`` stand in for table defaults."""
        values = []
        for key in keys or _TABLE[section]:
            parse, default = _TABLE[section][key]
            default = fallbacks.get(key, default)
            if cp.has_option(section, key):
                raw = cp.get(section, key)
            elif default is None:
                raise ConfigError(
                    f"[{section}] is missing required key {key!r}")
            else:
                defaults.append(f"{section}.{key}")
                raw = default
            values.append(parse(section, key, raw))
        return values

    params = _construct("params", SwimmerParams, read("params"))

    kind, = read("field", "kind")
    if kind not in _FIELD_KINDS:
        raise ConfigError(
            f"[field] kind must be one of {sorted(_FIELD_KINDS)}, "
            f"got {kind!r}")
    build, keys = _FIELD_KINDS[kind]
    if cp.has_section("field"):
        stray = set(cp.options("field")) - {"kind", *keys}
        if stray:
            raise ConfigError(
                f"[field] keys {sorted(stray)} do not apply to "
                f"kind = {kind}; remove them or change the kind")
    field = _construct("field", build, read("field", *keys))

    initial = _construct("initial", Configuration, read("initial"))

    if isinstance(field, SinusoidalField):
        default_t_final = repr(10.0 * field.period)
    elif isinstance(field, TabulatedField):
        default_t_final = repr(float(field.times[-1]))
    else:
        default_t_final = "10.0"
    dt, t_final, burn_in, measure = read("solver", t_final=default_t_final)
    if dt is None:
        dt = _default_dt(field, t_final)

    omega_min, omega_max, n_grid = read("analysis")
    if not 0.0 < omega_min < omega_max:
        raise ConfigError("[analysis] needs 0 < omega_min < omega_max")

    out_dir, formats = read("output")
    return RunConfig(
        params=params, field=field, initial=initial,
        dt=dt, t_final=t_final,
        burn_in_periods=burn_in, measure_periods=measure,
        omega_min=omega_min, omega_max=omega_max, n_grid=n_grid,
        output_dir=out_dir, formats=formats,
        applied_defaults=tuple(sorted(defaults)),
    )


def load_config(path: str | Path,
                overrides: Mapping[str, object] | None = None) -> RunConfig:
    """``parse_config`` of the file at ``path`` with ``overrides``; an
    unreadable file raises ``ConfigError``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text, overrides)
