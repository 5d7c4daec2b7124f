import csv

import numpy as np

from anelastic_lab import configio
from anelastic_lab.cli import main
from anelastic_lab.grids import Grid
from anelastic_lab.hydrostatics import (
    PotentialSpec,
    _profile_closed_form,
    build_profile,
    flatness_report,
    static_residual,
)
from anelastic_lab.params import ScalingParams


def test_zero_potential_gives_flat_profile(radial_grid, params):
    prof = build_profile(PotentialSpec(c_f=0.0), params, radial_grid)
    assert np.array_equal(prof.rho0, np.ones(radial_grid.n))


def test_gamma_two_closed_form(radial_grid):
    prof = build_profile(PotentialSpec(), ScalingParams(gamma=2.0), radial_grid)
    assert np.max(np.abs(prof.rho0 - (1.0 + 0.5 * prof.F))) == 0.0


def test_monatomic_spot_value():
    # gamma = 5/3, rho_bar = 1, F = 2.5: (1 + (2/5) 2.5)^(3/2) = 2 sqrt(2)
    val = _profile_closed_form(np.array([2.5]), 5.0 / 3.0, 1.0)[0]
    assert abs(val - 2.0 ** 1.5) < 1.0e-14


def test_static_residual_zero_for_flat(flat_profile):
    assert static_residual(flat_profile) == 0.0


def test_static_residual_second_order(params):
    residuals = []
    for n in (128, 256, 512):
        g = Grid("radial", n, 8.0, 6.0)
        residuals.append(static_residual(build_profile(PotentialSpec(), params, g)))
    rate1 = np.log2(residuals[0] / residuals[1])
    rate2 = np.log2(residuals[1] / residuals[2])
    assert rate1 > 1.9 and rate2 > 1.9


def test_static_residual_gamma_two_rate():
    residuals = []
    for n in (128, 256):
        g = Grid("radial", n, 8.0, 6.0)
        prof = build_profile(PotentialSpec(), ScalingParams(gamma=2.0), g)
        residuals.append(static_residual(prof))
    rate = np.log2(residuals[0] / residuals[1])
    assert abs(rate - 2.0) < 0.1


def test_profile_monotone_in_potential(radial_grid, params):
    lo = build_profile(PotentialSpec(c_f=0.5), params, radial_grid)
    hi = build_profile(PotentialSpec(c_f=1.5), params, radial_grid)
    assert np.all(hi.rho0 >= lo.rho0)
    assert np.all(hi.rho0 >= params.rho_bar)


def test_far_field_decay(params):
    spec = PotentialSpec()
    devs = []
    for r_max in (16.0, 32.0):
        g = Grid("radial", 256, r_max, 0.75 * r_max)
        prof = build_profile(spec, params, g)
        devs.append(prof.rho0[-1] - params.rho_bar)
    assert devs[0] > devs[1] > 0.0
    # 1/r tail: doubling the radius roughly halves the deviation
    assert 1.6 < devs[0] / devs[1] < 2.4


def test_grad_rho0_matches_differences(radial_profile, radial_grid):
    from anelastic_lab.grids import radial_gradient

    numeric = radial_gradient(radial_profile.rho0, radial_grid, parity="even")
    err = np.max(np.abs(numeric[:-1] - radial_profile.grad_rho0[:-1]))
    assert err < 5.0 * radial_grid.h**2


def test_envelope_constants():
    spec = PotentialSpec(c_f=2.0, a=1.0)
    f_low, f_up = spec.envelope_constants(1.0)
    r = np.linspace(1.01, 50.0, 400)
    F = spec.value(r)
    assert np.all(F <= f_up / r + 1.0e-14)
    assert np.all(F >= f_low / r - 1.0e-14)


class TestFlatnessReport:
    def test_grad_f_limit(self, params):
        g = Grid("radial", 512, 16.0, 12.0)
        rep = flatness_report(build_profile(PotentialSpec(), params, g))
        assert rep.max_r2_grad_f <= 1.01
        assert rep.all_finite

    def test_zero_potential(self, params):
        g = Grid("radial", 128, 16.0, 12.0)
        rep = flatness_report(build_profile(PotentialSpec(c_f=0.0), params, g))
        assert rep.max_r2_grad_f == 0.0
        assert rep.max_r3_hess_f == 0.0
        assert rep.max_r2_grad_a_plus_b == 0.0

    def test_tail_saturation(self, params):
        g1, g2 = Grid("radial", 256, 16.0, 12.0), Grid("radial", 512, 32.0, 24.0)
        rep1 = flatness_report(build_profile(PotentialSpec(), params, g1))
        rep2 = flatness_report(build_profile(PotentialSpec(), params, g2))
        for a, b in (
            (rep1.max_r2_grad_f, rep2.max_r2_grad_f),
            (rep1.max_r3_hess_f, rep2.max_r3_hess_f),
        ):
            assert abs(a - b) / a < 0.01


def test_profile_csv_export(tmp_path):
    sets = ["grid.n=96", "grid.r_max=8.0", "grid.r_sponge=6.0"]
    argv = ["profile", *(arg for item in sets for arg in ("--set", item))]
    assert main([*argv, "--output", str(tmp_path)]) == 0
    with open(tmp_path / "profile.csv") as fh:
        rows = list(csv.reader(fh))
    cfg = configio.load_config(None, sets)
    prof = build_profile(
        configio.potential_from(cfg), configio.params_from(cfg), configio.grid_from(cfg)
    )
    assert rows[0] == ["r", "F", "rho0", "dp"]
    assert len(rows) == prof.grid.n + 1
    r0, F0, rho0, dp0 = (float(v) for v in rows[1])
    assert abs(rho0 - prof.rho0[0]) < 1.0e-15
