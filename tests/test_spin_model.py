"""Spectral-density construction: normalization, analytic mixture values,
grid convergence, satellites, and input validation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qesr.dynamics import CavityModel, PulseEnvelope, time_domain_propagate
from qesr.spin_model import (
    GridSpec,
    SpinDistribution,
    SpinLine,
    _csv_text,
    build_distribution,
    density_at,
)

TWO_PI = 2.0 * np.pi
W0 = TWO_PI * 2.91e9


def lorentzian_pdf(x, center, fwhm):
    """Unit-area Lorentzian, the test-side oracle for line shapes."""
    h = 0.5 * fwhm
    return (h / math.pi) / ((x - center) ** 2 + h * h)


def triplet(split=TWO_PI * 2.2e6, fwhm=TWO_PI * 1.6e6):
    return [
        SpinLine(center=W0 - split, fwhm=fwhm, weight=1.0),
        SpinLine(center=W0, fwhm=fwhm, weight=1.0),
        SpinLine(center=W0 + split, fwhm=fwhm, weight=1.0),
    ]


# ---------------------------------------------------------------------------
# normalization and structure
# ---------------------------------------------------------------------------


def test_node_weights_normalized_bundled(scen_I, scen_III):
    for dist in (scen_I.dist, scen_III.dist):
        assert abs(float(dist.weights.sum()) - 1.0) < 1e-9
        assert np.all(dist.weights >= 0.0)
        assert np.all(np.diff(dist.omega_nodes) > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_node_weights_normalized_random(seed):
    rng = np.random.default_rng(20260823 + seed)
    n_lines = int(rng.integers(1, 5))
    lines = [
        SpinLine(
            center=W0 + TWO_PI * rng.uniform(-4e6, 4e6),
            fwhm=TWO_PI * rng.uniform(0.3e6, 3e6),
            weight=float(rng.uniform(0.2, 2.0)),
        )
        for _ in range(n_lines)
    ]
    dist = build_distribution(
        lines=lines, g_collective=TWO_PI * 1e6, grid=GridSpec(n_nodes=2001)
    )
    assert abs(float(dist.weights.sum()) - 1.0) < 1e-9
    assert abs(sum(ln.weight for ln in dist.lines) - 1.0) < 1e-12


def test_line_weights_renormalized():
    dist = build_distribution(
        lines=[
            SpinLine(center=W0 - TWO_PI * 1e6, fwhm=TWO_PI * 1e6, weight=2.0),
            SpinLine(center=W0, fwhm=TWO_PI * 1e6, weight=1.0),
            SpinLine(center=W0 + TWO_PI * 1e6, fwhm=TWO_PI * 1e6, weight=1.0),
        ],
        g_collective=TWO_PI * 1e6,
        grid=GridSpec(n_nodes=501),
    )
    got = [ln.weight for ln in dist.lines]
    assert got == pytest.approx([0.5, 0.25, 0.25], abs=1e-14)


def test_single_line_weights_symmetric():
    line = SpinLine(center=W0, fwhm=TWO_PI * 1.6e6, weight=1.0)
    dist = build_distribution(
        lines=[line], g_collective=TWO_PI * 2.9e6, grid=GridSpec(n_nodes=801)
    )
    assert abs(float(dist.weights.sum()) - 1.0) < 1e-12
    np.testing.assert_allclose(dist.weights, dist.weights[::-1], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# analytic density values
# ---------------------------------------------------------------------------


def test_density_peak_value_single_line():
    fwhm = TWO_PI * 1.6e6
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=fwhm, weight=1.0)],
        g_collective=TWO_PI * 2.9e6,
        grid=GridSpec(n_nodes=101),
    )
    assert density_at(dist, W0) == pytest.approx(2.0 / (math.pi * fwhm), rel=1e-12)


def test_density_far_tail_below_1e5_of_peak():
    fwhm = TWO_PI * 1.6e6
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=fwhm, weight=1.0)],
        g_collective=TWO_PI * 2.9e6,
        grid=GridSpec(n_nodes=101),
    )
    peak = density_at(dist, W0)
    assert density_at(dist, W0 + 1.5e3 * fwhm) < 1e-5 * peak


def test_density_triplet_matches_mixture_oracle(scen_III):
    dist = scen_III.dist
    centers = [ln.center for ln in dist.lines]
    fwhm = dist.lines[0].fwhm
    probe = centers[1]
    oracle = sum(lorentzian_pdf(probe, c, fwhm) / 3.0 for c in centers)
    assert density_at(dist, probe) == pytest.approx(oracle, rel=1e-6)


def test_gaussian_shape_peak_value():
    fwhm = TWO_PI * 2e6
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=fwhm, weight=1.0)],
        g_collective=TWO_PI * 1e6,
        shape="gaussian",
        grid=GridSpec(n_nodes=101),
    )
    # unit-area Gaussian with the given FWHM
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    assert density_at(dist, W0) == pytest.approx(
        1.0 / (sigma * math.sqrt(2.0 * math.pi)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# integrals and Riemann-sum consistency
# ---------------------------------------------------------------------------


def test_wide_window_mixture_integral():
    fwhm = TWO_PI * 2.4e6
    split = TWO_PI * 2.2e6
    lines = triplet(split=split, fwhm=fwhm)
    window = (W0 - TWO_PI * 25e6, W0 + TWO_PI * 25e6)
    dist = build_distribution(
        lines=lines,
        g_collective=TWO_PI * 3.8e6,
        grid=GridSpec(n_nodes=20001, window=window),
    )

    def mixture(w):
        return sum(lorentzian_pdf(w, ln.center, ln.fwhm) / 3.0 for ln in lines)

    grid = np.linspace(window[0], window[1], 20001)
    trap = float(np.trapezoid([mixture(w) for w in grid], grid))
    oracle, _ = quad(mixture, window[0], window[1], points=[ln.center for ln in lines], limit=200)
    # discretization agrees with adaptive quadrature over the same window
    assert trap == pytest.approx(oracle, rel=5e-3)
    # the +-25 MHz window keeps ~97% of the Lorentzian weight; the builder's
    # renormalization absorbs the truncated tails
    assert 0.95 < oracle < 0.985
    assert abs(float(dist.weights.sum()) - 1.0) < 1e-9


@pytest.mark.parametrize("n_nodes,tol", [(2001, 1e-2), (8001, 1e-3)])
def test_riemann_sum_matches_windowed_density(n_nodes, tol):
    fwhm = TWO_PI * 1.6e6
    lines = triplet(fwhm=fwhm)
    dist = build_distribution(
        lines=lines, g_collective=TWO_PI * 2.9e6, grid=GridSpec(n_nodes=n_nodes)
    )
    sigma = TWO_PI * 5e6

    def f(w):
        return math.exp(-0.5 * ((w - W0) / sigma) ** 2)

    lo, hi = float(dist.omega_nodes[0]), float(dist.omega_nodes[-1])

    def rho(w):
        return sum(lorentzian_pdf(w, ln.center, ln.fwhm) * ln.weight for ln in dist.lines)

    num, _ = quad(lambda w: rho(w) * f(w), lo, hi, points=[ln.center for ln in lines], limit=200)
    den, _ = quad(rho, lo, hi, points=[ln.center for ln in lines], limit=200)
    discrete = float(np.sum(dist.weights * np.vectorize(f)(dist.omega_nodes)))
    assert discrete == pytest.approx(num / den, rel=tol)


# ---------------------------------------------------------------------------
# collective coupling
# ---------------------------------------------------------------------------


def test_collective_coupling_reconstruction(scen_I, scen_III):
    for dist in (scen_I.dist, scen_III.dist):
        recon = math.sqrt(float(np.sum(dist.couplings_sq)))
        assert recon == pytest.approx(dist.g_collective, rel=1e-9)


def test_collective_coupling_random_weights():
    rng = np.random.default_rng(20260823)
    n = 257
    nodes = np.sort(W0 + TWO_PI * rng.uniform(-5e6, 5e6, n))
    weights = rng.uniform(0.0, 1.0, n)
    weights /= weights.sum()
    g_k = TWO_PI * 1e6
    dist = SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=TWO_PI * 1e6, weight=1.0),),
        g_collective=g_k,
        omega_nodes=nodes,
        weights=weights,
    )
    assert math.sqrt(float(np.sum(dist.couplings_sq))) == pytest.approx(g_k, rel=1e-9)


def test_quadrature_sum_identity():
    # N equal per-spin couplings g combine to g*sqrt(N)
    g_single = 7.3
    n = 523
    g_k = g_single * math.sqrt(n)
    nodes = W0 + np.arange(n, dtype=float)
    dist = SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=1.0, weight=1.0),),
        g_collective=g_k,
        omega_nodes=nodes,
        weights=np.full(n, 1.0 / n),
    )
    per_node = np.sqrt(dist.couplings_sq)
    np.testing.assert_allclose(per_node, g_single, rtol=1e-12)
    assert dist.g_collective == pytest.approx(g_k, rel=1e-12)


# ---------------------------------------------------------------------------
# refinement convergence (documented threshold: 2001 nodes, see README)
# ---------------------------------------------------------------------------


def test_refinement_convergence_of_transfer():
    lines = triplet()
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 1.5e5)
    times = np.array([100e-9])

    def beta_mag(n_nodes):
        dist = build_distribution(
            lines=lines, g_collective=TWO_PI * 2.9e6, grid=GridSpec(n_nodes=n_nodes)
        )
        res = time_domain_propagate(dist, cavity, "pulse", times, env=env, omega_p=W0)
        return float(np.abs(res.beta[0]))

    b_1001, b_2001, b_4001 = beta_mag(1001), beta_mag(2001), beta_mag(4001)
    assert abs(b_2001 - b_1001) / b_2001 < 1e-2
    assert abs(b_4001 - b_2001) / b_4001 < 1e-2


# ---------------------------------------------------------------------------
# satellites
# ---------------------------------------------------------------------------


def test_satellite_weight_conservation():
    lines = triplet()
    sats = [(TWO_PI * 0.5e6, 0.011), {"offset": -TWO_PI * 0.5e6, "weight": 0.011}]
    dist = build_distribution(
        lines=lines,
        g_collective=TWO_PI * 2.9e6,
        satellites=sats,
        grid=GridSpec(n_nodes=2001),
    )
    assert len(dist.lines) == 9  # each satellite replicates every main line
    assert abs(sum(ln.weight for ln in dist.lines) - 1.0) < 1e-12
    assert abs(float(dist.weights.sum()) - 1.0) < 1e-9
    mains = sorted(dist.lines, key=lambda ln: ln.weight, reverse=True)[:3]
    for ln in mains:
        assert ln.weight == pytest.approx((1.0 - 0.022) / 3.0, rel=1e-12)


def test_satellite_weight_bounds():
    with pytest.raises(ValueError):
        build_distribution(
            lines=triplet(),
            g_collective=TWO_PI * 1e6,
            satellites=[(TWO_PI * 1e6, 1.5)],
        )


# ---------------------------------------------------------------------------
# validation and warnings
# ---------------------------------------------------------------------------


def test_empty_lines_rejected():
    with pytest.raises(ValueError):
        build_distribution(lines=[], g_collective=TWO_PI * 1e6)


@pytest.mark.parametrize("fwhm,weight", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_bad_line_parameters_rejected(fwhm, weight):
    with pytest.raises(ValueError):
        SpinLine(center=W0, fwhm=fwhm, weight=weight)


@pytest.mark.parametrize(
    "nodes, weights",
    [([1.0, 2.0], [math.nan, 1.0]), ([1.0, math.inf], [0.5, 0.5])],
    ids=["nan_weight", "inf_node"],
)
def test_non_finite_distribution_rejected(nodes, weights):
    with pytest.raises(ValueError, match="finite"):
        SpinDistribution(
            lines=(SpinLine(center=1.5, fwhm=1.0, weight=1.0),), g_collective=1.0,
            omega_nodes=np.array(nodes), weights=np.array(weights),
        )


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        build_distribution(
            lines=triplet(), g_collective=TWO_PI * 1e6, grid=GridSpec(n_nodes=1)
        )


def test_narrow_window_warns():
    fwhm = TWO_PI * 1.6e6
    with pytest.warns(UserWarning, match="window"):
        build_distribution(
            lines=[SpinLine(center=W0, fwhm=fwhm, weight=1.0)],
            g_collective=TWO_PI * 1e6,
            grid=GridSpec(n_nodes=101, window=(W0 - 2 * fwhm, W0 + 2 * fwhm)),
        )


def test_distribution_arrays_immutable(scen_I):
    with pytest.raises(ValueError):
        scen_I.dist.weights[0] = 0.5


def test_export_csv_schema(tmp_path):
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=TWO_PI * 1e6, weight=1.0)],
        g_collective=TWO_PI * 1e6,
        grid=GridSpec(n_nodes=51),
    )
    path = tmp_path / "density.csv"
    dist.to_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "omega_rad_per_s,weight"
    assert len(rows) == 52
    om, w = rows[1].split(",")
    assert float(om) == pytest.approx(float(dist.omega_nodes[0]))
    assert float(w) == pytest.approx(float(dist.weights[0]))


def test_csv_text_writes_repr_of_float_for_every_value():
    """The column formatter writes, row by row, what repr(float(v)) gives for
    each value: signed zero, NaN, infinities, the subnormal and largest
    doubles, ints, float32 and a table of 5,001 rows."""
    rng = np.random.default_rng(24)
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308])
    single = rng.standard_normal(6).astype(np.float32)
    table = rng.standard_normal((5001, 2))
    cases = [
        ("v", lambda: [special]),
        ("n,f32", lambda: [np.arange(10, 16), single]),
        ("x,y", lambda: [table[:, 0], table[:, 1]]),
        ("tuple", lambda: [(10, 2.5, -3)]),  # a column of cli._sensitivity's rows
        ("empty", lambda: [[]]),
    ]
    for header, columns in cases:
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns()))
        assert _csv_text(header, *columns()) == header + "\n" + rows, header
    assert _csv_text("n", np.arange(10, 12)) == "n\n10.0\n11.0\n"
