"""Fine-scale permeability fields: file ingestion and synthetic generators.

Fields are (nx, ny) arrays in md on the fine base grid, index [i, j] with
i along x.  Generators are deterministic given their seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonPositivePermeability

LAYOUTS = ("row-major", "column-major")


def load_permeability(path, shape, layout="row-major"):
    """Read an ASCII whitespace-separated field of md values.

    "row-major" lists x fastest (one y-row per physical row of the file);
    "column-major" lists y fastest.
    """
    values = np.loadtxt(path).ravel()
    nx, ny = shape
    if values.size != nx * ny:
        raise DimensionMismatch(
            f"{path}: {values.size} values, expected {nx}x{ny}={nx * ny}")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise NonPositivePermeability(
            f"{path}: a value is not finite and positive")
    if layout == "row-major":
        return values.reshape(ny, nx).T.copy()
    if layout == "column-major":
        return values.reshape(nx, ny).copy()
    raise ValueError(f"unknown layout {layout!r}")


def load_fields(shape, kx_path, ky_path=None, layout="row-major"):
    """(kx, ky) read from files; without `ky_path`, ky is a copy of kx."""
    kx = load_permeability(kx_path, shape, layout)
    ky = load_permeability(ky_path, shape, layout) if ky_path else kx.copy()
    return kx, ky


def uniform_field(shape, seed=0, *, value=100.0):
    """Constant field; `seed` is unused."""
    return np.full(shape, float(value))


def gaussian_field(shape, seed=0, *, mean_log=3.0, sigma_log=1.0,
                   corr_len=4.0):
    """Lognormal field with Gaussian-filtered white-noise log-permeability.

    `corr_len` is the filter radius in cells.  The filtered noise is
    rescaled to unit variance before exponentiation so `sigma_log`
    controls the actual log spread.
    """
    # imported here: no other field needs scipy.ndimage, and loading it
    # (with scipy.special) adds about 0.1 s and 5 MB to every process
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape)
    smooth = gaussian_filter(noise, sigma=corr_len, mode="reflect")
    smooth = (smooth - smooth.mean()) / smooth.std()
    # an overflow is inf, which the field's users reject
    with np.errstate(over="ignore"):
        return np.exp(mean_log + sigma_log * smooth)


def channelized_field(shape, seed=0, *, k_background=5.0, k_channel=500.0,
                      n_channels=3, width=3.0, wiggle=0.15):
    """High-contrast field with sinuous high-permeability channels along x.

    Channel centerlines are smooth random walks in y; `width` is the
    channel half-width in cells, `wiggle` the walk step scale.
    """
    rng = np.random.default_rng(seed)
    nx, ny = shape
    field = np.full(shape, float(k_background))
    jj = np.arange(ny)
    for c in range(n_channels):
        y = rng.uniform(0.15, 0.85) * ny
        steps = rng.standard_normal(nx) * wiggle * ny / 30.0
        path = y + np.cumsum(steps)
        # reflect the centerline into the interior band
        path = np.clip(path, width, ny - 1 - width)
        field[np.abs(jj + 0.5 - path[:, None]) <= width] = k_channel
    return field


GENERATORS = {"uniform": uniform_field, "gaussian": gaussian_field,
              "channelized": channelized_field}


def make_field(kind, shape, seed=0, **kwargs):
    """Dispatch on generator kind: uniform, gaussian, channelized."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown field kind {kind!r}")
    return GENERATORS[kind](shape, seed, **kwargs)
