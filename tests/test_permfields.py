"""Permeability inputs: file layouts, validation, synthetic generators."""

import numpy as np
import pytest

from stdd.errors import DimensionMismatch, NonPositivePermeability
from stdd.permfields import (channelized_field, gaussian_field,
                             load_permeability, make_field)


class TestLoadFile:
    def test_row_major_layout(self, tmp_path):
        # one file row per y-row, x fastest: value at (i=1, j=0) is 2
        p = tmp_path / "k.txt"
        p.write_text("1 2\n3 4\n")
        k = load_permeability(p, (2, 2), "row-major")
        assert k[0, 0] == 1 and k[1, 0] == 2
        assert k[0, 1] == 3 and k[1, 1] == 4

    def test_column_major_layout(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2\n3 4\n")
        k = load_permeability(p, (2, 2), "column-major")
        assert k[0, 0] == 1 and k[0, 1] == 2
        assert k[1, 0] == 3 and k[1, 1] == 4

    def test_wrong_count_rejected(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(DimensionMismatch):
            load_permeability(p, (2, 2))

    def test_nonpositive_rejected(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 0\n3 4\n")
        with pytest.raises(NonPositivePermeability):
            load_permeability(p, (2, 2))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "k.txt"
        p.write_text(f"1 {bad}\n3 4\n")
        with pytest.raises(NonPositivePermeability):
            load_permeability(p, (2, 2))

    def test_unknown_layout(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("1 2\n3 4\n")
        with pytest.raises(ValueError):
            load_permeability(p, (2, 2), "diagonal")


class TestGenerators:
    SHAPE = (220, 60)

    def test_gaussian_deterministic(self):
        a = gaussian_field(self.SHAPE, 7)
        b = gaussian_field(self.SHAPE, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gaussian_field(self.SHAPE, 8))

    def test_gaussian_log_statistics(self):
        k = gaussian_field(self.SHAPE, 3, mean_log=3.0, sigma_log=1.0)
        logk = np.log(k)
        assert abs(logk.mean() - 3.0) < 0.05
        assert abs(logk.std() - 1.0) < 0.05
        assert np.all(k > 0)

    @pytest.mark.parametrize("shape", [SHAPE, (8, 8)])
    def test_gaussian_matches_direct_filter(self, shape):
        from scipy.ndimage import gaussian_filter

        noise = np.random.default_rng(7).standard_normal(shape)
        smooth = gaussian_filter(noise, sigma=4.0, mode="reflect")
        smooth = (smooth - smooth.mean()) / smooth.std()
        expected = np.exp(3.0 + 1.0 * smooth)
        got = gaussian_field(shape, 7)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_gaussian_is_correlated(self):
        k = np.log(gaussian_field(self.SHAPE, 5, corr_len=4.0))
        # neighboring cells must be much more alike than distant ones
        near = np.mean(np.abs(np.diff(k, axis=0)))
        far = np.mean(np.abs(k[:-40, :] - k[40:, :]))
        assert near < 0.25 * far

    def test_channelized_two_populations(self):
        k = channelized_field(self.SHAPE, 7)
        vals = np.unique(k)
        assert set(vals) == {5.0, 500.0}
        frac = np.mean(k == 500.0)
        assert 0.05 < frac < 0.6

    def test_channelized_deterministic(self):
        assert np.array_equal(channelized_field(self.SHAPE, 1),
                              channelized_field(self.SHAPE, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_channelized_matches_column_loop(self, seed):
        """Each channel's cells, set with one mask, are the ones a loop
        over the x-columns sets: the same draws, column by column."""
        nx, ny = self.SHAPE
        rng = np.random.default_rng(seed)
        expect = np.full(self.SHAPE, 5.0)
        jj = np.arange(ny)
        for _ in range(3):
            y = rng.uniform(0.15, 0.85) * ny
            path = y + np.cumsum(rng.standard_normal(nx) * 0.15 * ny / 30.0)
            path = np.clip(path, 3.0, ny - 1 - 3.0)
            for i in range(nx):
                expect[i, np.abs(jj + 0.5 - path[i]) <= 3.0] = 500.0
        assert np.array_equal(channelized_field(self.SHAPE, seed), expect)

    def test_channels_span_x(self):
        k = channelized_field(self.SHAPE, 9)
        # every x-column intersects at least one channel
        assert np.all(np.any(k == 500.0, axis=1))

    def test_make_field_dispatch(self):
        u = make_field("uniform", (4, 3), value=42.0)
        assert u.shape == (4, 3) and np.all(u == 42.0)
        assert np.array_equal(make_field("gaussian", (8, 8), 2),
                              gaussian_field((8, 8), 2))
        with pytest.raises(ValueError):
            make_field("perlin", (4, 4))
