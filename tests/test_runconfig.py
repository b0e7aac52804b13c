"""Strict INI schema: defaults, echoes, and rejection of stray keys."""
import math
import re

import pytest

from magswim.errors import ConfigError
from magswim.model import ConstantField, SinusoidalField, TabulatedField
from magswim.runconfig import load_config, parse_config

FULL = """
[params]
L = 1.3
xi = 1.2, 0.8, 0.8
eta = 3.0, 1.5, 1.5
K = 0.7
M = 1.1

[field]
kind = sinusoidal
hx0 = 1.0
epsilon = 0.05
omega = 0.62

[initial]
x = 0.0
y = 0.0
theta = 0.1
alpha2 = 0.0
alpha3 = 0.0

[solver]
dt = 0.005
t_final = 101.3
burn_in_periods = 10
measure_periods = 2

[analysis]
omega_min = 0.01
omega_max = 10.0
n_grid = 32

[output]
directory = out
formats = csv, jsonl
"""


class TestFullConfig:
    def test_everything_specified_means_no_defaults(self):
        cfg = parse_config(FULL)
        assert cfg.applied_defaults == ()
        assert cfg.params.L == 1.3
        assert cfg.params.K == 0.7
        assert cfg.field == SinusoidalField(1.0, 0.05, 0.62)
        assert cfg.initial.theta == 0.1
        assert cfg.dt == 0.005
        assert cfg.t_final == 101.3
        assert cfg.burn_in_periods == 10
        assert cfg.measure_periods == 2
        assert cfg.n_grid == 32
        assert cfg.output_dir == "out"
        assert cfg.formats == ("csv", "jsonl")

    def test_empty_config_is_all_defaults(self):
        cfg = parse_config("")
        # nondimensional reference: L is the length unit, eta2 the drag unit
        assert cfg.params.L == 1.0
        assert cfg.params.xi == (0.8, 0.5, 0.5)
        assert cfg.params.eta == (2.0, 1.0, 1.0)
        assert cfg.params.eta[1] == 1.0
        assert cfg.field == SinusoidalField(1.0, 1e-2, 1.0)
        assert cfg.initial.x == 0.0 and cfg.initial.alpha3 == 0.0
        # dt = auto: 2000 steps per period of the default drive
        assert cfg.dt == cfg.field.period / 2000.0
        assert cfg.t_final == pytest.approx(10 * 2 * math.pi)
        assert "params.L" in cfg.applied_defaults
        assert "solver.dt" in cfg.applied_defaults

    def test_defaults_are_sorted_and_complete(self):
        cfg = parse_config("")
        assert list(cfg.applied_defaults) == sorted(cfg.applied_defaults)
        # every schema key except the kind-specific extras shows up
        assert "analysis.n_grid" in cfg.applied_defaults
        assert "output.formats" in cfg.applied_defaults

    def test_applied_defaults_are_frozen(self):
        # the list as the per-key loader recorded it for an empty file
        assert parse_config("").applied_defaults == (
            "analysis.n_grid", "analysis.omega_max",
            "analysis.omega_min", "field.epsilon", "field.hx0", "field.kind",
            "field.omega", "initial.alpha2", "initial.alpha3",
            "initial.theta", "initial.x", "initial.y", "output.directory",
            "output.formats", "params.K", "params.L", "params.M",
            "params.eta", "params.xi", "solver.burn_in_periods",
            "solver.dt", "solver.measure_periods", "solver.t_final")


class TestFieldSection:
    def test_constant_field(self):
        cfg = parse_config("[field]\nkind = constant\nhx = 2.0\nhy = -1.0\n")
        assert cfg.field == ConstantField(2.0, -1.0)

    def test_tabulated_field(self):
        cfg = parse_config(
            "[field]\nkind = tabulated\nsamples =\n"
            "    0.0 1.0 0.0\n    1.0 0.5 0.5\n    2.0 0.0 1.0\n")
        assert isinstance(cfg.field, TabulatedField)
        assert cfg.field.sample(0.5) == (0.75, 0.25)
        # horizon defaults to the last sample time
        assert cfg.t_final == 2.0

    def test_tabulated_requires_samples(self):
        with pytest.raises(ConfigError, match="samples"):
            parse_config("[field]\nkind = tabulated\n")

    def test_mixed_kind_keys_are_ambiguous(self):
        with pytest.raises(ConfigError, match="do not apply"):
            parse_config("[field]\nkind = constant\nepsilon = 0.1\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config("[field]\nkind = rotating\n")

    def test_bad_sample_line(self):
        with pytest.raises(ConfigError, match="t hx hy"):
            parse_config("[field]\nkind = tabulated\nsamples =\n  0.0 1.0\n")

    def test_non_increasing_samples(self):
        with pytest.raises(ConfigError):
            parse_config(
                "[field]\nkind = tabulated\nsamples =\n"
                "    0.0 1.0 0.0\n    0.0 0.5 0.5\n")


class TestRejections:
    @pytest.mark.parametrize("text,fragment", [
        ("[nope]\nx = 1\n", "unknown section"),
        ("[params]\nomgea = 3\n", "unknown key"),
        ("[params]\nl = 2.0\n", "unknown key"),
        ("[params]\nL = fish\n", "not a number"),
        ("[params]\nxi = 1.0, 2.0\n", "three comma-separated"),
        ("[params]\nL = -1.0\n", "params"),
        ("[solver]\ndt = -0.1\n", "dt"),
        ("[solver]\nt_final = 0\n", "t_final"),
        ("[solver]\nburn_in_periods = 0\n", "positive"),
        ("[solver]\nburn_in_periods = 2.5\n", "integer"),
        ("[analysis]\nomega_min = 2.0\nomega_max = 1.0\n", "omega_min"),
        # no such key: controllability ranks at depth 3, the least that
        # reaches rank 4 at a straight pose
        ("[analysis]\nbracket_depth = 7\n", "bracket_depth"),
        ("[output]\nformats = csv, parquet\n", "unknown format"),
        ("[output]\nformats = csv, csv\n", "twice"),
        ("[output]\nformats = ,\n", "at least one"),
        ("L = 1.0\n", "malformed"),
        ("[params]\nL = 1.0\nL = 2.0\n", "malformed"),
    ])
    def test_rejected(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize("text,message", [
        ("[solver]\nt_final = inf\n",
         "[solver] t_final = 'inf' is not a finite number"),
        ("[solver]\nt_final = nan\n",
         "[solver] t_final = 'nan' is not a finite number"),
        ("[solver]\ndt = nan\n", "[solver] dt = 'nan' is not a finite number"),
        ("[solver]\ndt = inf\n", "[solver] dt = 'inf' is not a finite number"),
        ("[initial]\nx = nan\n", "[initial] x = 'nan' is not a finite number"),
        ("[field]\nepsilon = nan\n",
         "[field] epsilon = 'nan' is not a finite number"),
        ("[field]\nkind = constant\nhx = -inf\n",
         "[field] hx = '-inf' is not a finite number"),
        ("[params]\nK = inf\n", "[params] K = 'inf' is not a finite number"),
        ("[params]\nxi = 1, nan, 1\n",
         "[params] xi = 'nan' is not a finite number"),
        ("[analysis]\nomega_max = inf\n",
         "[analysis] omega_max = 'inf' is not a finite number"),
        ("[field]\nomega = -1\n", "[field]: omega must be positive"),
    ])
    def test_non_finite_and_field_errors_name_their_section(self, text,
                                                            message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)


class TestResolvedDt:
    """``dt = auto`` resolves in the parse to the step the run takes."""

    def test_explicit_wins(self):
        cfg = parse_config("[solver]\ndt = 0.02\n")
        assert cfg.dt == 0.02

    def test_auto_keyword_defers(self):
        # to the same default as leaving dt out
        cfg = parse_config("[solver]\ndt = auto\n")
        assert cfg.dt == parse_config("").dt
        assert "solver.dt" not in cfg.applied_defaults

    def test_periodic_default_resolves_a_cycle(self):
        cfg = parse_config("[field]\nkind = sinusoidal\nomega = 2.0\n")
        assert cfg.dt == pytest.approx(math.pi / 2000.0)

    def test_aperiodic_default_splits_horizon(self):
        cfg = parse_config(
            "[field]\nkind = constant\n[solver]\nt_final = 5.0\n")
        assert cfg.dt == pytest.approx(5.0e-4)


class TestOverrides:
    """A "section.key" override is that key, set after the text is read."""

    def test_override_is_the_key(self):
        text = "[solver]\ndt = 0.05\n"
        assert parse_config(text, {"field.omega": 3.0}) == \
            parse_config(text + "[field]\nomega = 3.0\n")

    def test_override_replaces_the_text(self):
        cfg = parse_config("[analysis]\nn_grid = 16\n",
                           {"analysis.n_grid": 32})
        assert cfg.n_grid == 32


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(FULL)
        cfg = load_config(path)
        assert cfg.params.M == 1.1

    def test_reads_file_with_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(FULL)
        assert load_config(path, {"params.M": 0.9}).params.M == 0.9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")
