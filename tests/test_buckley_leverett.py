"""The strip preset against the Buckley-Leverett solution.

Water injected at a constant rate into a 50 x 2.5 ft strip of
incompressible fluids without capillarity displaces the oil as the
Buckley-Leverett profile: the fractional flow f_w(S) of the Brooks-Corey
curves, a shock at Welge's tangent from the initial saturation, and each
saturation behind it moving at f_w'(S) times the total velocity over the
porosity.  The profile is computed here from the relperm parameters,
without `stdd.physics`, and checked against the program's own curves.
The error is L1: the mean |S(x) - S_BL(x)| over the base-cell columns
with x < 47.5 ft, upstream of the producer's tile, S the column mean of
the last snapshot.
"""

from dataclasses import replace

import numpy as np
import pytest

from stdd.config import preset
from stdd.output import read_grid_csv
from stdd.run import run

# The Brooks-Corey and fluid defaults that the strip runs with
S_WIRR, S_OR, KR0_W, KR0_O, N_W, N_O = 0.2, 0.2, 1.0, 1.0, 2.0, 2.0
MU_W, MU_O = 1.0, 3.0
X_END = 47.5            # ft, where the producer's tile begins

# (mode, fine dt) -> L1, each at or above the value of the tree that
# added this test: uniform-fine 0.0210709 / 0.0255500 / 0.0467392 at
# dt 0.25 / 0.5 / 2 and dynamic-dd 0.0226262 / 0.0273759 at fine dt
# 0.25 / 0.5, coarse dt 2
L1_BOUND = {("uniform-fine", 0.25): 0.02108, ("uniform-fine", 0.5): 0.02556,
            ("uniform-fine", 2.0): 0.04674, ("dynamic-dd", 0.25): 0.02263,
            ("dynamic-dd", 0.5): 0.02738}
# dynamic-dd's L1 above uniform-fine's at the same fine dt (0.0016 and
# 0.0018 on that tree)
ADAPTIVE_MARGIN = 0.002


def relperms(s):
    se = np.clip((s - S_WIRR) / (1.0 - S_WIRR - S_OR), 0.0, 1.0)
    return KR0_W * se**N_W, KR0_O * (1.0 - se)**N_O


def buckley_leverett(x, t, velocity):
    """S_BL at the distances `x` from the inlet after `t` days, for a
    total Darcy velocity over porosity of `velocity` ft/day; also the
    front saturation."""
    s = np.linspace(S_WIRR, 1.0 - S_OR, 200_001)
    krw, kro = relperms(s)
    fw = (krw / MU_W) / (krw / MU_W + kro / MU_O)
    dfw = np.gradient(fw, s)
    # Welge: the tangent from (S_wirr, 0) touches f_w at the front
    front = 1 + np.argmax(fw[1:] / (s[1:] - S_WIRR))
    reach = velocity * t * dfw[front:]      # falls with S behind the front
    behind = np.interp(x, reach[::-1], s[front:][::-1])
    return np.where(x < reach[0], behind, S_WIRR), s[front]


def strip_l1(tmp_path, mode, fine_dt):
    cfg = preset("strip")
    table = {k: (hx, hy, fine_dt if k in (1, 3) else dt)
             for k, (hx, hy, dt) in cfg.table.items()}
    cfg = replace(cfg, mode=mode, table=table)
    out = tmp_path / f"{mode}-{fine_dt}"
    summary = run(cfg, out, emit_vtk=False)
    assert summary["mass_balance"]["relative_error"] <= 1e-12
    sw = read_grid_csv(out / summary["snapshots"][-1]["sw"])
    hx = cfg.base_cell[0]
    x = (np.arange(sw.shape[0]) + 0.5) * hx
    (injector,) = [w for w in cfg.wells if w.kind == "rate-water-injector"]
    width = cfg.reservoir[3] - cfg.reservoir[1]
    velocity = injector.value * 5.615 / (cfg.phi * width * cfg.dz)
    s_bl, _ = buckley_leverett(x, summary["snapshots"][-1]["time"], velocity)
    upstream = x < X_END
    return float(np.mean(np.abs(sw.mean(axis=1) - s_bl)[upstream]))


@pytest.fixture(scope="module")
def l1(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("strip")
    return {key: strip_l1(tmp, *key) for key in L1_BOUND}


def test_curves_are_the_programs(tmp_path):
    """The parameters above give the curves the strip run writes."""
    cfg = replace(preset("strip"), mode="uniform-coarse", horizon=2.0)
    run(cfg, tmp_path, emit_vtk=False)
    curves = np.loadtxt(tmp_path / "curves.csv", delimiter=",", skiprows=1)
    krw, kro = relperms(curves[:, 0])
    np.testing.assert_allclose(curves[:, 1], krw, rtol=0, atol=1e-14)
    np.testing.assert_allclose(curves[:, 2], kro, rtol=0, atol=1e-14)
    assert np.all(curves[:, 3] == 0)


def test_welge_front():
    """The front saturation and position of these curves after 20 days at
    0.05 STB/day: S_f = 0.5 and x_f = 28.07 ft."""
    s, s_f = buckley_leverett(np.array([0.0, 28.0, 28.2]), 20.0,
                              0.05 * 5.615 / (0.2 * 2.5))
    assert s_f == pytest.approx(0.5, abs=1e-4)
    assert s[0] == pytest.approx(1.0 - S_OR, abs=1e-3)
    assert s[1] >= s_f and s[2] == S_WIRR


@pytest.mark.parametrize("key", list(L1_BOUND),
                         ids=[f"{mode}-{dt}" for mode, dt in L1_BOUND])
def test_l1_bound(l1, key):
    assert l1[key] <= L1_BOUND[key]


def test_l1_falls_as_dt_is_refined(l1):
    assert (l1[("uniform-fine", 2.0)] > l1[("uniform-fine", 0.5)]
            > l1[("uniform-fine", 0.25)])
    assert l1[("dynamic-dd", 0.5)] > l1[("dynamic-dd", 0.25)]


@pytest.mark.parametrize("fine_dt", [0.5, 0.25])
def test_adaptive_within_margin_of_uniform(l1, fine_dt):
    assert (l1[("dynamic-dd", fine_dt)]
            <= l1[("uniform-fine", fine_dt)] + ADAPTIVE_MARGIN)
