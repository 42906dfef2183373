"""Run configuration: typed container, presets, and file loaders.

Configs load from JSON (nested, mirrors the schema in config.schema.json)
or from a flat INI-style sections file.  All geometry and divisibility
constraints are validated up front so a bad config fails before any
assembly happens.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .adaptivity import Thresholds, Tiling
from .errors import ConfigError
from .mesh import _int_ratio
from .permfields import GENERATORS, LAYOUTS, load_fields
from .physics import (BrooksCoreyModel, FluidModel, FluidRockModel,
                      finite_number)
from .solver import NewtonConfig

MODES = ("uniform-fine", "uniform-coarse", "static-dd", "dynamic-dd")
# the constant identifier of each uniform reference mode
UNIFORM_IDENTIFIER = {"uniform-fine": 1, "uniform-coarse": 4}
WELL_KINDS = ("rate-water-injector", "bhp-producer")
# how many numbers each geometry key holds
GEOMETRY = {"reservoir": 4, "base_cell": 2, "tile": 2, "static_fine_box": 4}
# the keys that hold one number each
SCALARS = ("dz", "horizon", "delta_t", "phi", "initial_pressure",
           "initial_saturation")

# A config's `newton` and `thresholds` sections are laid over these.
NEWTON_DEFAULTS = asdict(NewtonConfig())
THRESHOLD_DEFAULTS = asdict(Thresholds())


@dataclass(frozen=True)
class WellSpec:
    """A well occupying one coarse tile of cells.

    `value` is STB/day of water for rate injectors, BHP in psi for
    producers.
    """

    tile: tuple              # (i, j) coarse tile indices
    kind: str
    value: float
    r_w: float = 0.25

    def __post_init__(self):
        if not (isinstance(self.tile, tuple) and len(self.tile) == 2
                and all(isinstance(v, numbers.Integral)
                        and not isinstance(v, bool) for v in self.tile)):
            raise ConfigError(
                f"well tile {self.tile!r} is not two integer indices")
        if self.kind not in WELL_KINDS:
            raise ConfigError(f"unknown well kind {self.kind!r}")
        if not (finite_number(self.value) and finite_number(self.r_w)):
            raise ConfigError("well value and radius must be finite numbers")
        if self.kind == "rate-water-injector" and self.value <= 0:
            raise ConfigError("injection rate must be positive")
        if self.kind == "bhp-producer" and self.value < 0:
            raise ConfigError("producer BHP must be non-negative")
        if self.r_w <= 0:
            raise ConfigError("well radius must be positive")


@dataclass
class RunConfig:
    """Everything needed to reproduce one simulation run."""

    reservoir: tuple = (0.0, 0.0, 110.0, 30.0)   # ft
    dz: float = 1.0
    horizon: float = 60.0                        # days
    delta_t: float = 2.0                         # matching step, days
    base_cell: tuple = (0.5, 0.5)                # fine grid, ft
    tile: tuple = (2.5, 2.5)                     # classification tile, ft
    # identifier -> (hx, hy, dt)
    table: dict = field(default_factory=lambda: {
        1: (0.5, 0.5, 1.0), 2: (0.5, 0.5, 2.0),
        3: (2.5, 2.5, 1.0), 4: (2.5, 2.5, 2.0)})
    mode: str = "dynamic-dd"
    static_fine_box: tuple = (0.0, 0.0, 25.0, 30.0)  # fine region, static-dd
    phi: float = 0.2
    fluid: dict = field(default_factory=dict)        # FluidModel overrides
    relcap: dict = field(default_factory=dict)       # BrooksCoreyModel overrides
    permeability: dict = field(default_factory=lambda: {
        "kind": "channelized", "seed": 7})
    wells: list = field(default_factory=lambda: [
        WellSpec((0, 0), "rate-water-injector", 0.3),
        WellSpec((43, 11), "bhp-producer", 1000.0)])
    thresholds: dict = field(default_factory=dict)  # over THRESHOLD_DEFAULTS
    newton: dict = field(default_factory=dict)      # over NEWTON_DEFAULTS
    initial_pressure: float = 1000.0     # psi
    initial_saturation: float = 0.2
    emit_fine_levels: bool = False
    label: str = "run"

    def __post_init__(self):
        self.thresholds = {**THRESHOLD_DEFAULTS, **self.thresholds}
        self.newton = {**NEWTON_DEFAULTS, **self.newton}
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self):
        for key in SCALARS:
            if not finite_number(getattr(self, key)):
                raise ConfigError(f"{key} must be a finite number")
        if not isinstance(self.emit_fine_levels, bool):
            raise ConfigError("emit_fine_levels must be true or false")
        for key, n in GEOMETRY.items():
            v = getattr(self, key)
            if len(v) != n or not all(map(finite_number, v)):
                raise ConfigError(f"{key} must hold {n} finite numbers")
        if set(self.table) != {1, 2, 3, 4}:
            raise ConfigError("table must define identifiers 1..4")
        if any(len(row) != 3 or not all(map(finite_number, row))
               for row in self.table.values()):
            raise ConfigError("each table row must be (hx, hy, dt)")
        if min(*self.base_cell, *self.tile,
               *(v for row in self.table.values() for v in row)) <= 0:
            raise ConfigError("cell sizes, tiles and time steps must be "
                              "positive")
        for key in ("reservoir", "static_fine_box"):
            x0, y0, x1, y1 = getattr(self, key)
            if not (x1 > x0 and y1 > y0):
                raise ConfigError(f"{key} must have positive extent")
        x0, y0, x1, y1 = self.reservoir
        if self.horizon <= 0 or self.delta_t <= 0 or self.dz <= 0:
            raise ConfigError("horizon, delta_t and dz must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        _int_ratio(self.tile[0], self.base_cell[0], ConfigError, "tile/base x")
        _int_ratio(self.tile[1], self.base_cell[1], ConfigError, "tile/base y")
        _int_ratio(x1 - x0, self.tile[0], ConfigError, "reservoir/tile x")
        _int_ratio(y1 - y0, self.tile[1], ConfigError, "reservoir/tile y")
        for k, (hx, hy, dt) in self.table.items():
            _int_ratio(self.tile[0], hx, ConfigError, f"tile/h id {k} x")
            _int_ratio(self.tile[1], hy, ConfigError, f"tile/h id {k} y")
            _int_ratio(hx, self.base_cell[0], ConfigError, f"h/base id {k} x")
            _int_ratio(hy, self.base_cell[1], ConfigError, f"h/base id {k} y")
            _int_ratio(self.delta_t, dt, ConfigError, f"delta_t/dt id {k}")
        _int_ratio(self.horizon, self.window_length, ConfigError,
                   "horizon/window length")
        tiling = Tiling(self.reservoir, *self.tile)
        if (self.mode == "static-dd"
                and not tiling.inside(self.static_fine_box).any()):
            raise ConfigError(f"static_fine_box {self.static_fine_box} "
                              "holds no tile centre")
        ntx, nty = tiling.shape
        for w in self.wells:
            i, j = w.tile
            if not (0 <= i < ntx and 0 <= j < nty):
                raise ConfigError(f"well tile {w.tile} outside {ntx}x{nty}")
            if (w.kind == "bhp-producer"
                    and w.r_w >= self.well_equivalent_radius):
                raise ConfigError(
                    f"well radius {w.r_w} ft too large for tile {self.tile}")
        if not (0 <= self.initial_saturation <= 1):
            raise ConfigError("initial saturation must lie in [0, 1]")
        if not (0 < self.phi <= 1):
            raise ConfigError("porosity must lie in (0, 1]")
        base_shape = (_int_ratio(x1 - x0, self.base_cell[0], ConfigError,
                                 "reservoir/base x"),
                      _int_ratio(y1 - y0, self.base_cell[1], ConfigError,
                                 "reservoir/base y"))
        for name, build in (("fluid", FluidModel),
                            ("relcap", BrooksCoreyModel),
                            ("thresholds", Thresholds),
                            ("newton", NewtonConfig),
                            ("permeability", functools.partial(
                                _check_permeability, base_shape))):
            try:
                build(**getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    def fluid_rock_model(self):
        """The configured fluids and rock curves; reads no permeability."""
        return FluidRockModel(FluidModel(**self.fluid),
                              BrooksCoreyModel(**self.relcap))

    # -- derived geometry -------------------------------------------------

    @property
    def window_length(self):
        """Days per window: the constant identifier's own step in a
        uniform mode, the matching step `delta_t` otherwise."""
        k = UNIFORM_IDENTIFIER.get(self.mode)
        return self.delta_t if k is None else self.table[k][2]

    @property
    def well_equivalent_radius(self):
        """Peaceman equivalent radius of a producer, ft.  The completion
        spans the whole tile, so it uses the tile diagonal; this keeps the
        well index positive and independent of the local refinement."""
        return 0.14 * math.hypot(*self.tile)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        d = asdict(self)
        d["table"] = {str(k): list(v) for k, v in self.table.items()}
        d["wells"] = [{"tile": list(w.tile), "kind": w.kind,
                       "value": w.value, "r_w": w.r_w} for w in self.wells]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            if "table" in d:
                d["table"] = {int(k): tuple(v)
                              for k, v in d["table"].items()}
            if "wells" in d:
                d["wells"] = [WellSpec(**{**w, "tile": tuple(w["tile"])})
                              for w in d["wells"]]
            for key in GEOMETRY:
                if key in d:
                    d[key] = tuple(d[key])
            return cls(**d)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def _check_permeability(shape, kind="uniform", **params):
    """Raise TypeError or ValueError unless the spec can build a field on
    the base grid's `shape`; a generator's parameters but its seed must be
    finite numbers, `width` and `corr_len` positive, `n_channels`,
    `sigma_log` and `wiggle` non-negative, and the field it builds on
    `shape` finite and positive (the build rejects a fractional
    `n_channels`).  A file's values are checked when it is read."""
    if kind == "file":
        inspect.signature(load_fields).bind(None, **params)
        if params.get("layout", "row-major") not in LAYOUTS:
            raise ValueError(f"unknown layout {params['layout']!r}")
    elif kind in GENERATORS:
        for name, v in params.items():
            if name != "seed" and not finite_number(v):
                raise ValueError(f"{name} must be a finite number")
            if name in ("width", "corr_len") and v <= 0:
                raise ValueError(f"{name} must be positive")
            if name in ("n_channels", "sigma_log", "wiggle") and v < 0:
                raise ValueError(f"{name} must not be negative")
        k = GENERATORS[kind](shape, **params)
        if not np.all(np.isfinite(k) & (k > 0)):
            raise ValueError("permeability must be finite and positive")
    else:
        raise ValueError(f"unknown field kind {kind!r}")


def load_config(path):
    """Load a RunConfig from a JSON file or a flat INI sections file."""
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return RunConfig.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _from_ini(text, path)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


# INI sections that fill the config's dict-valued keys of the same name
INI_NESTED = ("fluid", "relcap", "thresholds", "newton", "permeability")


def _from_ini(text, path):
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        d = _ini_dict(cp)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig.from_dict(d)


def _ini_dict(cp):
    """The from_dict input of a parsed INI file.  Raises ValueError on an
    unknown section or [run] key and on a value that does not parse."""
    d = {}
    for section in cp.sections():
        if (section not in ("run", "table", *INI_NESTED)
                and not section.startswith("well")):
            raise ValueError(f"unknown section [{section}]")
    if cp.has_section("run"):
        for key, v in cp["run"].items():
            if key in ("mode", "label"):
                d[key] = v
            elif key == "emit_fine_levels":
                d[key] = _parse_bool(v)
            elif key in GEOMETRY:
                d[key] = [float(x) for x in v.split()]
            elif key in SCALARS:
                d[key] = float(v)
            else:
                raise ValueError(f"[run] unknown key {key!r}")
    for section in INI_NESTED:
        if cp.has_section(section):
            sub = {}
            for k, v in cp[section].items():
                if k in ("kind", "kx_path", "ky_path", "layout"):
                    sub[k] = v
                elif k in ("seed", "max_iters", "n_channels"):
                    sub[k] = int(v)
                else:
                    sub[k] = float(v)
            d[section] = sub
    if cp.has_section("table"):
        d["table"] = {k: [float(v) for v in s.split()]
                      for k, s in cp["table"].items()}
    wells = []
    for section in cp.sections():
        if section.startswith("well"):
            w = dict(cp[section])
            if "tile" in w:
                w["tile"] = [int(v) for v in w["tile"].split()]
            for key in ("value", "r_w"):
                if key in w:
                    w[key] = float(w[key])
            wells.append(w)
    if wells:
        d["wells"] = wells
    return d


# -- presets ---------------------------------------------------------------

def preset(name, scale="desk"):
    """Named experiment configurations.

    `scale` selects the horizon: "desk" runs 60 days (`static-dd` 40),
    "paper" 100 days; `toy` keeps its 8 days at either scale.  The
    spatial grid (220x60 fine cells over 110x30 ft) is identical.
    """
    horizon = {"desk": 60.0, "paper": 100.0}.get(scale)
    if horizon is None:
        raise ConfigError(f"unknown scale {scale!r}")
    common = dict(horizon=horizon, label=name)
    if name == "dynamic-dd":
        return RunConfig(mode="dynamic-dd",
                         permeability={"kind": "channelized", "seed": 7},
                         **common)
    if name == "dynamic-dd-gaussian":
        return RunConfig(mode="dynamic-dd",
                         permeability={"kind": "gaussian", "seed": 7},
                         **common)
    if name == "static-dd":
        return RunConfig(mode="static-dd", delta_t=5.0,
                         horizon=horizon if scale == "paper" else 40.0,
                         tile=(5.0, 5.0),
                         table={1: (0.5, 0.5, 1.0), 2: (0.5, 0.5, 5.0),
                                3: (5.0, 5.0, 1.0), 4: (5.0, 5.0, 5.0)},
                         static_fine_box=(0.0, 0.0, 25.0, 30.0),
                         wells=[WellSpec((0, 0), "rate-water-injector", 0.3),
                                WellSpec((21, 5), "bhp-producer", 1000.0)],
                         permeability={"kind": "channelized", "seed": 7},
                         label=name)
    if name in ("uniform-fine", "uniform-coarse"):
        return RunConfig(mode=name,
                         permeability={"kind": "channelized", "seed": 7},
                         **common)
    if name == "toy":
        return RunConfig(reservoir=(0.0, 0.0, 20.0, 5.0), horizon=8.0,
                         delta_t=2.0, base_cell=(0.5, 0.5), tile=(2.5, 2.5),
                         table={1: (0.5, 0.5, 0.5), 2: (0.5, 0.5, 2.0),
                                3: (2.5, 2.5, 0.5), 4: (2.5, 2.5, 2.0)},
                         mode="dynamic-dd",
                         permeability={"kind": "uniform", "value": 100.0},
                         wells=[WellSpec((0, 0), "rate-water-injector", 0.1),
                                WellSpec((7, 1), "bhp-producer", 1000.0)],
                         label=name)
    raise ConfigError(f"unknown preset {name!r}")
