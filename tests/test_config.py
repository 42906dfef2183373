"""Configuration loading, validation, and presets."""

import json
import math
import pathlib
from dataclasses import asdict, replace

import numpy as np
import pytest

import stdd.config
from stdd.config import (MODES, NEWTON_DEFAULTS, THRESHOLD_DEFAULTS,
                         RunConfig, WellSpec, load_config, preset)
from stdd.errors import ConfigError
from stdd.physics import BrooksCoreyModel, FluidModel
from stdd.run import Problem


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.mode in MODES

    def test_non_divisible_tile_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(tile=(3.0, 2.5))

    def test_non_divisible_dt_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(delta_t=4.0, table={1: (0.5, 0.5, 3.0),
                                          2: (0.5, 0.5, 4.0),
                                          3: (2.5, 2.5, 1.0),
                                          4: (2.5, 2.5, 4.0)})

    def test_incomplete_table_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(table={1: (0.5, 0.5, 1.0)})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="hybrid")

    def test_well_outside_tiling_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(wells=[WellSpec((44, 0), "rate-water-injector", 1.0)])

    @pytest.mark.parametrize("tile", [(0.5, 0), (0, 1.0), (True, 0),
                                      ("0", 0), (0,), (0, 0, 0), [0, 0]])
    def test_well_tile_is_two_integer_indices(self, tile):
        with pytest.raises(ConfigError, match="two integer indices"):
            WellSpec(tile, "rate-water-injector", 1.0)

    def test_bad_well_kind(self):
        with pytest.raises(ConfigError):
            WellSpec((0, 0), "gas-injector", 1.0)

    def test_negative_rate(self):
        with pytest.raises(ConfigError):
            WellSpec((0, 0), "rate-water-injector", -1.0)

    def test_bad_saturation(self):
        with pytest.raises(ConfigError):
            RunConfig(initial_saturation=1.5)

    def test_bad_porosity(self):
        with pytest.raises(ConfigError):
            RunConfig(phi=0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"reservoirs": [0, 0, 1, 1]})

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("box", [(25.0, 0.0, 0.0, 30.0),
                                     (0.0, 30.0, 25.0, 0.0),
                                     (10.0, 0.0, 10.0, 30.0)])
    def test_static_fine_box_without_extent_rejected(self, mode, box):
        """In every mode, as the reservoir box is."""
        with pytest.raises(ConfigError, match="static_fine_box"):
            RunConfig(mode=mode, static_fine_box=box)

    @pytest.mark.parametrize("box", [(200.0, 0.0, 300.0, 30.0),
                                     (0.0, 0.0, 1.25, 30.0),
                                     (1.3, 1.3, 3.7, 3.7)])
    def test_static_fine_box_holding_no_tile_centre_rejected(self, box):
        """static-dd refines the tiles whose centres (1.25, 3.75, ... ft
        on the default 2.5 ft tiles) lie strictly inside the box; a box
        that holds none would run uniformly coarse.  The other modes do
        not read the box."""
        with pytest.raises(ConfigError, match="no tile centre"):
            RunConfig(mode="static-dd", static_fine_box=box)
        RunConfig(mode="dynamic-dd", static_fine_box=box)

    def test_static_fine_box_refines_the_tiles_it_validates(self):
        """Validation and `Problem.static_idmap` read one tile-centre
        rule: the smallest accepted box refines exactly its one tile."""
        cfg = RunConfig(mode="static-dd", static_fine_box=(1.2, 3.7, 1.3, 3.8))
        ids = Problem(cfg).static_idmap().identifiers
        assert np.argwhere(ids == 1).tolist() == [[0, 1]]
        assert np.count_nonzero(ids == 4) == ids.size - 1

    @pytest.mark.parametrize("mode, horizon", [
        ("dynamic-dd", 9.0), ("static-dd", 9.0), ("uniform-coarse", 9.0),
        ("uniform-fine", 8.25)])
    def test_horizon_not_whole_windows_rejected(self, mode, horizon):
        with pytest.raises(ConfigError):
            replace(preset("toy"), mode=mode, horizon=horizon)

    def test_horizon_counted_in_the_modes_window_length(self):
        # toy windows: dt(1) = 0.5 days uniform-fine, delta_t = 2 otherwise
        cfg = replace(preset("toy"), mode="uniform-fine", horizon=8.5)
        assert cfg.window_length == 0.5
        assert replace(cfg, mode="uniform-coarse", horizon=8.0) \
            .window_length == 2.0
        assert preset("toy").window_length == cfg.delta_t


class TestNestedSections:
    @pytest.mark.parametrize("section, override, defaults", [
        ("newton", {"tol": 1e-8}, NEWTON_DEFAULTS),
        ("thresholds", {"theta_eta": 0.3}, THRESHOLD_DEFAULTS)])
    def test_partial_section_overlays_defaults(self, section, override,
                                               defaults):
        cfg = RunConfig.from_dict({section: override})
        assert getattr(cfg, section) == {**defaults, **override}

    # unknown keys of each section are in test_cli.py's exit-code table
    @pytest.mark.parametrize("section, bad", [
        ("fluid", {"mu_w": -1.0}),
        ("newton", {"tol": 0.0}),
        ("newton", {"max_halvings": 2}),
        ("permeability", {"kind": "uniform", "seed": 1, "valeu": 5.0}),
        ("permeability", {"kind": "fractal"}),
        ("permeability", {"kind": "file"}),
        ("permeability", {"kind": "file", "kx_path": "k.txt",
                          "layout": "diagonal"})])
    def test_bad_section_is_config_error(self, section, bad):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({section: bad})


class TestSchema:
    """config.schema.json and the loader name the same keys."""

    SCHEMA = json.loads((pathlib.Path(stdd.config.__file__).parent
                         / "config.schema.json").read_text())

    def test_top_level_properties_are_the_fields(self):
        assert set(self.SCHEMA["properties"]) == \
            set(RunConfig.__dataclass_fields__)

    @pytest.mark.parametrize("section, defaults", [
        ("newton", NEWTON_DEFAULTS), ("thresholds", THRESHOLD_DEFAULTS),
        ("fluid", asdict(FluidModel())),
        ("relcap", asdict(BrooksCoreyModel()))])
    def test_section_properties_are_the_defaults(self, section, defaults):
        assert set(self.SCHEMA["properties"][section]["properties"]) == \
            set(defaults)

    @staticmethod
    def admitted_and_ruled_out(bound):
        """Values of a schema bound's type and bounds, and values it rules
        out: the wrong type (a bool is not a number, nor is NaN or an
        infinity) or past a bound."""
        if bound["type"] == "boolean":
            return [True, False], ["no", "false", 0, 1]
        step = 1 if bound["type"] == "integer" else 0.5
        good, bad = [], [True, "1", math.nan, math.inf, -math.inf]
        if "minimum" in bound:
            good.append(bound["minimum"])
            bad.append(bound["minimum"] - step)
        if "exclusiveMinimum" in bound:
            good.append(bound["exclusiveMinimum"] + 1.0e-9)
            bad.append(bound["exclusiveMinimum"])
        if "maximum" in bound:
            good.append(bound["maximum"])
            bad.append(bound["maximum"] + step)
        if bound["type"] == "integer":
            bad.append(good[0] + 1.5)
        return good, bad

    def test_bounds_match_the_validator(self):
        """The schema's bounds are the ones `RunConfig` enforces: a
        threshold may be zero but not negative, a uniform permeability
        must be positive, and every value of a `newton`, `thresholds`,
        `fluid` or `relcap` key, a field generator's parameter or a flag
        that the schema rules out is a ConfigError."""
        props = self.SCHEMA["properties"]
        for name in THRESHOLD_DEFAULTS:
            bound = props["thresholds"]["properties"][name]
            assert bound["minimum"] == 0 and "exclusiveMinimum" not in bound
            RunConfig(thresholds={name: 0.0}).validate()
            with pytest.raises(ConfigError):
                RunConfig(thresholds={name: -1.0e-9}).validate()
        assert props["permeability"]["properties"]["value"] == {
            "description": "Uniform field's permeability, md",
            "type": "number", "exclusiveMinimum": 0}
        for value in (0.0, -1.0):
            with pytest.raises(ConfigError):
                RunConfig(permeability={"kind": "uniform",
                                        "value": value}).validate()
        RunConfig(permeability={"kind": "uniform", "value": 1.0e-9}).validate()
        checks = [(props[section]["properties"][k], lambda v, s=section, k=k:
                   RunConfig(**{s: {k: v}}))
                  for section in ("newton", "thresholds", "fluid", "relcap")
                  for k in props[section]["properties"]]
        checks.append((props["emit_fine_levels"],
                       lambda v: RunConfig(emit_fine_levels=v)))
        for kind, keys in (("gaussian", ("sigma_log", "corr_len")),
                           ("channelized", ("n_channels", "width",
                                            "wiggle"))):
            checks += [(props["permeability"]["properties"][k],
                        lambda v, kind=kind, k=k:
                        RunConfig(permeability={"kind": kind, k: v}))
                       for k in keys]
        for bound, config in checks:
            good, bad = self.admitted_and_ruled_out(bound)
            for v in good:
                config(v).validate()
            for v in bad:
                with pytest.raises(ConfigError):
                    config(v)


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = preset("toy")
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_json_file_round_trip(self, tmp_path):
        cfg = preset("static-dd")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        again = load_config(p)
        assert again.to_dict() == cfg.to_dict()

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{ not json")
        with pytest.raises(ConfigError):
            load_config(p)


class TestIniLoading:
    INI = """\
[run]
reservoir = 0 0 20 5
horizon = 8
delta_t = 2
base_cell = 0.5 0.5
tile = 2.5 2.5
mode = dynamic-dd
label = from-ini

[table]
1 = 0.5 0.5 0.5
2 = 0.5 0.5 2.0
3 = 2.5 2.5 0.5
4 = 2.5 2.5 2.0

[permeability]
kind = uniform
value = 100

[newton]
max_iters = 40
tol = 1e-6

[thresholds]
theta_ds = 0.04
theta_dt = 0.04
theta_eta = 0.3

[well.injector]
tile = 0 0
kind = rate-water-injector
value = 0.1

[well.producer]
tile = 7 1
kind = bhp-producer
value = 1000
"""

    def test_ini_parses(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(self.INI)
        cfg = load_config(p)
        assert cfg.label == "from-ini"
        assert cfg.reservoir == (0.0, 0.0, 20.0, 5.0)
        assert cfg.table[2] == (0.5, 0.5, 2.0)
        assert cfg.newton["max_iters"] == 40
        assert cfg.thresholds["theta_eta"] == 0.3
        assert len(cfg.wells) == 2
        assert cfg.wells[0].kind == "rate-water-injector"

    def test_ini_equivalent_to_json(self, tmp_path):
        pi = tmp_path / "cfg.ini"
        pi.write_text(self.INI)
        ci = load_config(pi)
        pj = tmp_path / "cfg.json"
        pj.write_text(json.dumps(ci.to_dict()))
        assert load_config(pj).to_dict() == ci.to_dict()

    def test_missing_well_field_reported(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[well.injector]\ntile = 0 0\nvalue = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_malformed_ini_reported(self, tmp_path):
        p = tmp_path / "cfg.ini"
        for text in ("run]\nmode oops\n",
                     "[run]\nhorizon = abc\n",
                     "[run]\nhorizn = 4\n",
                     "[newtonn]\nmax_iters = 40\n",
                     "[newton]\ndamping = true\n",
                     "[run]\nuse_capillarity = false\n",
                     "[run]\nupscaling = flow\n",
                     "[newton]\nmax_ds = 0.2\n",
                     "[fluid]\nmu_w = nan\n",
                     "[relcap]\neps_s = 0\n",
                     "[well.injector]\ntile = 0 0\n"
                     "kind = rate-water-injector\nvalue = 0.1\nrw = 0.1\n"):
            p.write_text(text)
            with pytest.raises(ConfigError):
                load_config(p)


# (kind, parameter, a finite value) of every number a field generator
# takes but its seed
GENERATOR_NUMBERS = [
    ("uniform", "value", 50.0), ("gaussian", "mean_log", 2.0),
    ("gaussian", "sigma_log", 0.5), ("gaussian", "corr_len", 2.0),
    ("channelized", "k_background", 2.0), ("channelized", "k_channel", 50.0),
    ("channelized", "n_channels", 2), ("channelized", "width", 2.0),
    ("channelized", "wiggle", 0.1)]
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


class TestGeneratorNumbers:
    """NaN or an infinite generator parameter is a ConfigError, in JSON
    and in INI; a finite one builds the field."""

    @pytest.mark.parametrize("text", [*NON_FINITE, "finite"])
    @pytest.mark.parametrize("kind, key, finite", GENERATOR_NUMBERS,
                             ids=[f"{k}-{p}" for k, p, _ in GENERATOR_NUMBERS])
    def test_json(self, tmp_path, kind, key, finite, text):
        value = NON_FINITE.get(text, finite)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"permeability": {"kind": kind, "seed": 7,
                                                  key: value}}))
        if text == "finite":
            assert load_config(p).permeability[key] == finite
        else:
            with pytest.raises(ConfigError, match=key):
                load_config(p)

    @pytest.mark.parametrize("text", [*NON_FINITE, "finite"])
    @pytest.mark.parametrize("kind, key, finite", GENERATOR_NUMBERS,
                             ids=[f"{k}-{p}" for k, p, _ in GENERATOR_NUMBERS])
    def test_ini(self, tmp_path, kind, key, finite, text):
        p = tmp_path / "cfg.ini"
        p.write_text(f"[permeability]\nkind = {kind}\nseed = 7\n"
                     f"{key} = {finite if text == 'finite' else text}\n")
        if text == "finite":
            assert load_config(p).permeability[key] == finite
        else:
            with pytest.raises(ConfigError):
                load_config(p)


class TestPresets:
    def test_all_presets_valid(self):
        for name in ("dynamic-dd", "dynamic-dd-gaussian", "static-dd",
                     "uniform-fine", "uniform-coarse", "toy"):
            cfg = preset(name)
            assert cfg.label == name

    def test_scales(self):
        assert preset("dynamic-dd", scale="desk").horizon == 60.0
        assert preset("dynamic-dd", scale="paper").horizon == 100.0
        # static-dd's desk figures are for 40 days; paper scale is 20
        # five-day windows
        assert preset("static-dd", scale="desk").horizon == 40.0
        paper = preset("static-dd", scale="paper")
        assert paper.horizon == 100.0
        assert paper.horizon / paper.window_length == 20
        for scale in ("desk", "paper"):
            assert preset("toy", scale=scale).horizon == 8.0
        with pytest.raises(ConfigError):
            preset("dynamic-dd", scale="poster")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("benchmark-x")

    def test_comparable_presets_share_problem(self):
        a = preset("uniform-fine")
        b = preset("dynamic-dd")
        assert a.reservoir == b.reservoir
        assert a.permeability == b.permeability
        assert [w.tile for w in a.wells] == [w.tile for w in b.wells]
