import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import stacked_run

from anelastic_lab import anelastic, cli, configio, harness, helmholtz, hydrostatics, lapack
from anelastic_lab.cli import main
from anelastic_lab.grids import Grid
from anelastic_lab.harness import (
    SweepPlan,
    audit_quarantine_time,
    sweep_epsilon,
)
from anelastic_lab.helmholtz import RadialWeightedLaplacian
from anelastic_lab.hydrostatics import PotentialSpec, build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import GaussianBump, IllPreparedData, init_ill_prepared, run_primitive


def tiny_plan(**kw):
    defaults = dict(
        eps_list=(0.4, 0.2),
        data=IllPreparedData(
            rho1=GaussianBump(0.3, 1.0),
            vel_potential=GaussianBump(0.3, 1.2),
            theta2=GaussianBump(0.3, 1.0),
        ),
        potential=PotentialSpec(),
        params=ScalingParams(eps=0.2, horizon=0.5),
        grid=Grid("radial", 96, 8.0, 6.0),
        n_samples=11,
        beta=0.5,
    )
    defaults.update(kw)
    return SweepPlan(**defaults)


class TestSweep:
    def test_static_data_all_norms_tiny(self):
        plan = tiny_plan(data=IllPreparedData())
        rep = sweep_epsilon(plan)
        assert np.all(rep.n1 < 1.0e-10)
        assert np.all(rep.n2a < 1.0e-10)
        assert np.all(rep.n3 < 1.0e-12)
        assert np.all(rep.r12 == 0.0)
        assert "r12 slope: not exercised (r12 = 0 for every eps)" in rep.summary_text()

    def test_acoustic_data_monotone(self):
        rep = sweep_epsilon(tiny_plan(eps_list=(0.4, 0.2, 0.1)))
        assert rep.n1_decreasing and rep.n3_decreasing
        assert rep.n1_slope > 0.0 and rep.n3_slope > 0.0
        text = rep.summary_text()
        assert "N1 decreasing=True" in text
        # at lam = 0 the r4 and r7 constants are 0 for every eps: no spread is printed for them
        spreads = text.splitlines()[-1]
        assert "r4=not exercised" in spreads and "r7=not exercised" in spreads
        assert spreads.count("not exercised") == 2

    def test_csv_output(self, tmp_path):
        rep = sweep_epsilon(tiny_plan())
        rep.write_csv(str(tmp_path))
        assert (tmp_path / "convergence.csv").exists()
        assert (tmp_path / "bounds.csv").exists()
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per eps

    def test_n2b_depends_only_on_h_over_eps(self):
        """Pins a known defect of the scheme, not a property of the limit.

        The eps^2-rescaled temperature distance N2b grows as eps falls at
        fixed n and agrees at equal h/eps: the Rusanov dissipation, of
        speed ~c/eps, diffuses Theta at O(h/eps).  A Theta-preserving
        dissipation (ROADMAP item 2) is expected to flip the first
        assertion.
        """
        def n2b(n, eps):
            cfg = configio.load_config(None, [f"grid.n={n}"])
            plan = SweepPlan(
                eps_list=(0.4, 0.2),
                data=configio.data_from(cfg),
                potential=configio.potential_from(cfg),
                params=configio.params_from(cfg),
                grid=configio.grid_from(cfg),
                n_samples=17,
                beta=cfg["sweep.beta"],
            )
            params = plan.params.with_eps(eps)
            prof = build_profile(plan.potential, params, plan.grid)
            init = init_ill_prepared(plan.data, prof, params)
            times = np.linspace(0.0, params.horizon, 17)
            norms = harness.NormsPass(prof, params, times, plan.data.theta2.field(plan.grid))
            return harness.limit_norms(norms, run_primitive(init, prof, params, times, [norms]))[2]

        coarse, fine = n2b(128, 0.4), n2b(128, 0.2)
        assert fine > coarse
        assert n2b(256, 0.2) == pytest.approx(coarse, rel=0.02)

    def test_quarantine_scales_with_eps(self, radial_profile):
        t1 = audit_quarantine_time(radial_profile, ScalingParams(eps=0.2))
        t2 = audit_quarantine_time(radial_profile, ScalingParams(eps=0.1))
        assert t1 == pytest.approx(2.0 * t2)


class TestConfig:
    def test_defaults_complete(self):
        cfg = configio.load_config()
        assert cfg["grid.geometry"] == "radial"
        configio.grid_from(cfg)
        configio.data_from(cfg)
        # the params.* and potential.* defaults are the dataclasses' own
        assert configio.params_from(cfg) == ScalingParams()
        assert configio.potential_from(cfg) == PotentialSpec()

    def test_values_take_the_type_of_their_default(self):
        text = {k: ",".join(map(repr, v)) if isinstance(v, tuple) else str(v)
                for k, v in configio.DEFAULTS.items()}
        cfg = configio.load_config(None, [f"{k}={v}" for k, v in text.items()])
        assert cfg == configio.DEFAULTS
        assert all(type(cfg[k]) is type(v) for k, v in configio.DEFAULTS.items())

    def test_parse_sections_and_comments(self):
        text = "# comment\n[grid]\nn = 64  # inline\n\n[params]\neps = 0.3\n"
        cfg = configio.parse_config_text(text)
        assert cfg == {"grid.n": "64", "params.eps": "0.3"}

    def test_unknown_key_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nn = 64\nwavelets = on\n")
        with pytest.raises(configio.ConfigError) as err:
            configio.load_config(str(path))
        assert "grid.wavelets" in str(err.value)

    def test_override_wins(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("[grid]\nn = 64\n")
        cfg = configio.load_config(str(path), ["grid.n=128"])
        assert cfg["grid.n"] == 128

    def test_eps_list_validation(self):
        for bad in ("0.1,0.2", "0.4", "0.4,0.4", "0.4,-0.1", "0.4,nan", "inf,0.4", "0.4,x"):
            with pytest.raises(configio.ConfigError, match="sweep.eps_list"):
                configio.load_config(None, [f"sweep.eps_list={bad}"])
        cfg = configio.load_config(None, ["sweep.eps_list=0.4, 0.1"])
        assert cfg["sweep.eps_list"] == (0.4, 0.1)

    # the command-line cases are in test_bad_input_exits_2
    @pytest.mark.parametrize(
        "item",
        ["grid.n=64.0", "params.eps=x", "params.lam=-inf", "acoustic.q=-inf",
         "data.theta2_width=-1", "sweep.beta=0"],
    )
    def test_bad_value_names_its_key(self, item):
        with pytest.raises(configio.ConfigError, match=item.partition("=")[0]):
            configio.load_config(None, [item])

    def test_readme_lists_the_bounds(self):
        # the README's `| key | bound |` table names each bounded key once, with its interval;
        # the eps list's row goes on to say the list falls strictly
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.strip() == "| key | bound |")
        listed = {}
        for line in lines[start + 2:]:
            if not line.strip().startswith("|"):
                break
            keys, bound = (cell.strip() for cell in line.strip().strip("|").split("|"))
            for key in keys.split(", "):
                assert key.strip("`") not in listed
                listed[key.strip("`")] = bound
        assert listed.keys() == configio.BOUNDS.keys()
        for key, bound in configio.BOUNDS.items():
            text = listed[key]
            assert text == bound or (key == "sweep.eps_list" and text.startswith(bound + " ")), key

    def test_cross_key_rules(self):
        # beta's upper bound gamma/3 moves with gamma
        assert configio.load_config(None, ["params.gamma=2", "sweep.beta=0.6"])["sweep.beta"] == 0.6
        # p = inf is the admissible endpoint with q = 6, the one infinite value allowed
        cfg = configio.load_config(None, ["acoustic.p=inf", "acoustic.q=6"])
        assert cfg["acoustic.p"] == np.inf
        with pytest.raises(configio.ConfigError, match="acoustic.p"):
            configio.load_config(None, ["acoustic.p=inf"])


SMALL = ["--set", "grid.n=96", "--set", "grid.r_max=8.0", "--set", "grid.r_sponge=6.0"]


class TestCli:
    def test_profile_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["profile", *SMALL, "--output", out]) == 0
        assert os.path.exists(os.path.join(out, "profile.csv"))
        assert os.path.exists(os.path.join(out, "flatness.txt"))

    def test_profile_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["profile", *SMALL, "--output", out1])
        main(["profile", *SMALL, "--output", out2])
        b1 = open(os.path.join(out1, "profile.csv"), "rb").read()
        b2 = open(os.path.join(out2, "profile.csv"), "rb").read()
        assert b1 == b2

    def test_profile_builds_its_profile_once(self, tmp_path, monkeypatch):
        calls = []
        real = hydrostatics.build_profile

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (cli, hydrostatics):
            monkeypatch.setattr(module, "build_profile", counting)
        assert main(["profile", *SMALL, "--output", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_quietly(self, tmp_path, unbuffered):
        # the reader is gone before the command prints, as in `anelastic-lab profile | head -0`
        read, write = os.pipe()
        os.close(read)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        argv = ["profile", *SMALL, "--output", str(tmp_path)]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "anelastic_lab.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
            )
        finally:
            os.close(write)
        assert proc.returncode == 141  # 128 + SIGPIPE
        assert proc.stderr == b""
        assert (tmp_path / "profile.csv").exists()

    def test_strichartz_admissibility_exit_codes(self, tmp_path):
        out = str(tmp_path / "o")
        argv = ["strichartz", "--set", "acoustic.p=4", *SMALL, "--output", out]
        ok = main([*argv, "--set", "acoustic.q=12"])
        bad = main([*argv, "--set", "acoustic.q=10"])
        assert ok == 0
        assert bad == 2

    def test_strichartz_takes_the_infinite_p_endpoint(self, tmp_path, capsys):
        # 1/p + 3/q = 1/2 at p = inf, q = 6: the L^inf_t norm is the largest lq_norm
        argv = ["strichartz", "--set", "acoustic.p=inf", "--set", "acoustic.q=6", *SMALL]
        assert main([*argv, "--output", str(tmp_path)]) == 0
        value = float(capsys.readouterr().out.split("value=")[1].split()[0])
        rows = (tmp_path / "strichartz.csv").read_text().splitlines()[1:]
        assert value == max(float(row.split(",")[1]) for row in rows)

    def test_unknown_config_key_exit_code(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(["profile", "--set", "grid.bogus=1", "--output", out])
        assert code == 2

    def test_sweep_writes_rows(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(
            [
                "sweep",
                "--set",
                "sweep.eps_list=0.4,0.2",
                *SMALL,
                "--set",
                "sweep.samples=11",
                "--set",
                "params.horizon=0.5",
                "--output",
                out,
            ]
        )
        assert code == 0
        lines = open(os.path.join(out, "convergence.csv")).read().strip().splitlines()
        assert len(lines) == 3

    def test_sweep_with_bulk_viscosity_exercises_every_bound(self, tmp_path):
        # lam > 0 runs the bulk-viscosity branches of the rate and the bounds
        out = str(tmp_path / "o")
        sets = ("params.lam=0.5", "data.rho1_amp=5", "sweep.eps_list=0.5,0.4,0.3", "grid.n=128")
        code = main(["sweep", *(a for item in sets for a in ("--set", item)), "--output", out])
        assert code == 0
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "not exercised" not in summary

    def test_simulate_primitive_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = main(
            [
                "simulate-primitive",
                *SMALL,
                "--set",
                "params.horizon=0.3",
                "--set",
                "run.samples=7",
                "--output",
                out,
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out, "final_state.npz"))
        assert main(["report", "--output", out]) == 0
        assert "diagnostics.csv" in capsys.readouterr().out

    def test_final_state_is_the_last_sample(self, tmp_path):
        sets = [*SMALL, "--set", "params.horizon=0.3", "--set", "params.lam=0.25"]
        assert main(["simulate-primitive", *sets, "--output", str(tmp_path)]) == 0
        # the command streams its run; the same run, stacked
        cfg = configio.load_config(None, sets[1::2])
        _, params, prof = cli._profile_setup(cfg)
        init = init_ill_prepared(configio.data_from(cfg), prof, params)
        traj, samples = stacked_run(init, prof, params, np.linspace(0.0, 0.3, cfg["run.samples"]))
        last = samples.row(-1)
        with np.load(tmp_path / "final_state.npz", allow_pickle=False) as saved:
            assert np.array_equal(saved["fields"], last.fields) and saved["t"] == last.t == 0.3
            assert (str(saved["geometry"]), int(saved["n"])) == ("radial", 96)
            assert (saved["r_max"], saved["r_sponge"]) == (8.0, 6.0)
            for key in ("eps", "alpha", "gamma", "lam", "mu", "rho_bar"):
                assert saved[key] == getattr(traj.params, key)
            assert len(saved.files) == 12

    def test_simulate_acoustic(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(
            ["simulate-acoustic", *SMALL, "--set", "run.samples=9",
             "--set", "params.horizon=0.5", "--output", out]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "acoustic.csv"))

    def test_simulate_anelastic_radial(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(
            ["simulate-anelastic", *SMALL, "--set", "run.samples=5",
             "--set", "params.horizon=0.3", "--output", out]
        )
        assert code == 0

    def test_cartesian_anelastic_needs_experimental(self, tmp_path):
        out = str(tmp_path / "o")
        args = ["simulate-anelastic", "--set", "grid.geometry=cartesian",
                "--set", "grid.n=8", "--set", "grid.r_max=8.0",
                "--set", "grid.r_sponge=6.0", "--set", "run.samples=3",
                "--set", "params.horizon=0.05", "--output", out]
        assert main(args) == 2
        assert main(args + ["--experimental"]) == 0

    def test_spectrum_and_decay(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["spectrum", *SMALL, "--output", out]) == 0
        assert os.path.exists(os.path.join(out, "spectrum.csv"))
        assert main(["decay", *SMALL, "--output", out]) == 0
        assert os.path.exists(os.path.join(out, "decay.csv"))

    def test_decay_beyond_the_dense_limit(self, tmp_path):
        # the window's modes come from the bands alone, with no n ceiling
        assert main(["decay", "--set", "grid.n=4608", "--output", str(tmp_path)]) == 0

    def test_spectrum_at_n_8192(self, tmp_path):
        assert main(["spectrum", "--set", "grid.n=8192", "--output", str(tmp_path)]) == 0
        assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == 8192 + 1

    def test_no_dense_eigenvectors_on_the_cli(self, tmp_path, monkeypatch):
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **kw: calls.append(name))
        for command in ("spectrum", "decay", "strichartz", "simulate-acoustic"):
            assert main([command, *SMALL, "--output", str(tmp_path)]) == 0
        assert calls == []  # LAPACK dstevr on the bands is the only eigensolver

    def test_unconverged_eigensolve_exits_3(self, tmp_path, monkeypatch, capsys):
        real = lapack.DSTEVR

        def failing(*args):
            real(*args)
            args[19].value = 5  # INFO

        monkeypatch.setattr(lapack, "DSTEVR", failing)
        assert main(["decay", *SMALL, "--output", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "dstevr" in err and "info = 5" in err

    def test_simulate_anelastic_reports_absolute_divergence(self, tmp_path, capsys):
        code = main(
            ["simulate-anelastic", *SMALL, "--set", "run.samples=5",
             "--set", "params.horizon=0.3", "--output", str(tmp_path)]
        )
        assert code == 0
        # radial V is zero: no ratio is printed, the norms are written
        assert "max-div-defect=not-measured" in capsys.readouterr().out
        header = (tmp_path / "anelastic.csv").read_text().splitlines()[0]
        assert header == "t,div_norm,flux_norm,s_velocity,s_pressure,s_density"

    def count_laplacians(self, monkeypatch):
        built = []
        real_init = RadialWeightedLaplacian.__init__

        def counting_init(self, *args):
            built.append(1)
            real_init(self, *args)

        monkeypatch.setattr(RadialWeightedLaplacian, "__init__", counting_init)
        return built

    def test_radial_simulate_anelastic_builds_no_laplacian(self, tmp_path, monkeypatch):
        # the closed form and its zero divergence norms need no operator
        built = self.count_laplacians(monkeypatch)
        assert main(["simulate-anelastic", "--output", str(tmp_path)]) == 0
        assert built == []

    def test_audit_rei_builds_one_laplacian(self, tmp_path, monkeypatch):
        # the projection and the acoustic operator share the profile's operator
        built = self.count_laplacians(monkeypatch)
        argv = ["audit-rei", *SMALL, "--set", "params.horizon=0.4", "--output", str(tmp_path)]
        assert main(argv) == 0
        assert built == [1]

    def test_radial_commands_make_no_solve(self, tmp_path, monkeypatch):
        calls = {"solve_weighted_poisson": 0, "_cg": 0}
        for name in calls:
            real = getattr(helmholtz, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(helmholtz, name, counting)
        short = [*SMALL, "--set", "params.horizon=0.2", "--set", "run.samples=3"]
        for argv in (
            ["sweep", "--set", "sweep.eps_list=0.4,0.2", *SMALL, "--set", "sweep.samples=5",
             "--set", "params.horizon=0.2"],
            ["audit-rei", *SMALL, "--set", "params.horizon=0.4"],
            ["simulate-acoustic", *short],
            ["simulate-anelastic", *short],
        ):
            assert main([*argv, "--output", str(tmp_path / argv[0])]) == 0
        assert calls == {"solve_weighted_poisson": 0, "_cg": 0}
        # the counters see the cartesian projection
        cartesian = ["--experimental", "--set", "grid.geometry=cartesian", "--set", "grid.n=8",
                     "--set", "run.samples=2", "--set", "params.horizon=0.05"]
        assert main(["simulate-anelastic", *cartesian, "--output", str(tmp_path / "c")]) == 0
        assert calls["_cg"] == calls["solve_weighted_poisson"] > 0

    def test_radial_simulate_anelastic_takes_no_step_and_no_solve(self, tmp_path, monkeypatch):
        calls = {"step_anelastic": 0, "_cg": 0}
        for module, name in ((anelastic, "step_anelastic"), (helmholtz, "_cg")):
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        assert main(["simulate-anelastic", *SMALL, "--output", str(tmp_path / "r")]) == 0
        assert calls == {"step_anelastic": 0, "_cg": 0}
        # the counters see the cartesian time loop, which steps and solves
        cartesian = ["--experimental", "--set", "grid.geometry=cartesian", "--set", "grid.n=8",
                     "--set", "run.samples=2", "--set", "params.horizon=0.05"]
        assert main(["simulate-anelastic", *cartesian, "--output", str(tmp_path / "c")]) == 0
        assert calls["step_anelastic"] > 0 and calls["_cg"] > calls["step_anelastic"]

    def test_audit_rei_small(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(
            ["audit-rei", *SMALL, "--set", "params.horizon=0.4", "--output", out]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "rei.csv"))
        lines = open(os.path.join(out, "rei_summary.txt")).read().splitlines()
        # audit summary, bounds table, residual pressure, then the three raw lines
        assert lines[0].startswith("rei-audit samples=")
        assert lines[1].startswith("bound   measured-lhs")
        assert lines[-4].startswith("residual-pressure value    = ")
        assert lines[-1].startswith("perturbed strictly larger  = ")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate-primitive", "--set", "run.samples=0"], "run.samples"),
        (["simulate-primitive", "--set", "run.samples=-1"], "run.samples"),
        (["sweep", "--set", "sweep.samples=1"], "sweep.samples"),
        (["decay", "--set", "acoustic.points_per_period=0"], "acoustic.points_per_period"),
        (["strichartz", "--set", "acoustic.p=0"], "acoustic.p"),
        (["strichartz", "--set", "acoustic.q=-12"], "acoustic.q"),
        (["simulate-anelastic", "--set", "data.vel_width=0"], "data.vel_width"),
        (["simulate-primitive", "--set", "data.vel_width=0"], "data.vel_width"),
        (["audit-rei", "--set", "acoustic.delta=0"], "acoustic.delta"),
        (["audit-rei", "--set", "acoustic.delta=1"], "acoustic.delta"),
        (["decay", "--set", "acoustic.delta=nan"], "acoustic.delta"),
        (["sweep", "--set", "sweep.beta=nan"], "sweep.beta"),
        (["audit-rei", "--set", "sweep.beta=0.6"], "sweep.beta"),
        # a ball that holds no cell: SMALL's first cell centre is h/2 = 1/24
        (["decay", "--set", "acoustic.ball_radius=-1"], "acoustic.ball_radius"),
        (["decay", "--set", "acoustic.ball_radius=0.02"], "acoustic.ball_radius"),
        (["decay", "--set", "acoustic.ball_radius=nan"], "acoustic.ball_radius"),
        # non-finite values of any key but acoustic.p and acoustic.q
        (["simulate-primitive", "--set", "params.mu=nan"], "params.mu"),
        (["simulate-primitive", "--set", "params.lam=inf"], "params.lam"),
        (["profile", "--set", "potential.c_f=nan"], "potential.c_f"),
        (["decay", "--set", "data.rho1_width=inf"], "data.rho1_width"),
        (["simulate-anelastic", "--set", "data.theta2_amp=nan"], "data.theta2_amp"),
        (["simulate-anelastic", "--set", "potential.c_f=nan"], "potential.c_f"),
        (["simulate-anelastic", "--set", "params.horizon=inf"], "params.horizon"),
        (["strichartz", "--set", "acoustic.p=nan"], "acoustic.p"),
        (["sweep", "--set", "sweep.eps_list=0.4,nan"], "sweep.eps_list"),
        (["sweep", "--set", "sweep.eps_list=inf,0.4"], "sweep.eps_list"),
        # data whose windowed norm or initial acoustic energy overflows: the
        # validation line is all they print, no numpy overflow warning
        *(
            pytest.param(argv, key, marks=pytest.mark.filterwarnings("error"))
            for argv, key in (
                (["decay", "--set", "data.rho1_amp=1e200"], "data.rho1_amp"),
                (["simulate-acoustic", "--set", "data.rho1_amp=1e160"], "data.rho1_amp"),
                (["simulate-acoustic", "--set", "data.vel_amp=1e155"], "data.vel_amp"),
                # primitive data whose initial total energy overflows
                (["simulate-primitive", "--set", "data.rho1_amp=1e308"], "data.rho1_amp"),
                (["audit-rei", "--set", "data.vel_amp=1e200"], "data.vel_amp"),
                (["sweep", "--set", "data.rho1_amp=1e308"], "data.rho1_amp"),
            )
        ),
        # keys the command does not read are checked all the same
        (["report", "--set", "grid.n=abc"], "grid.n"),
        (["profile", "--set", "acoustic.delta=abc"], "acoustic.delta"),
        (["profile", "--set", "sweep.beta=0.6"], "sweep.beta"),
        (["spectrum", "--set", "acoustic.q=10"], "acoustic.q"),
        (["sweep", "--set", "run.seed=-3"], "run.seed"),
        # a --config that cannot be read: missing, a directory, not UTF-8
        (["profile", "--config", "missing.cfg"], "missing.cfg"),
        (["profile", "--config", "cfgdir"], "cfgdir"),
        (["profile", "--config", "latin1.cfg"], "latin1.cfg"),
        # report reads its directory and makes none
        (["report", "--output", "nothere"], "nothere"),
        # values the built objects would reject are blamed on their own key
        (["profile", "--set", "grid.n=3"], "grid.n = 3"),
        (["profile", "--set", "grid.geometry=polar"], "grid.geometry = 'polar'"),
        (["profile", "--set", "params.gamma=1.2"], "params.gamma = 1.2"),
        # a --config syntax error names the file; an unknown key names where it was set
        (["profile", "--config", "syntax.cfg"], "configuration file syntax.cfg: line 2"),
        (["profile", "--config", "unknown.cfg"], "grid.wavelets (in unknown.cfg)"),
        (["profile", "--set", "grid.wavelets=on"], "grid.wavelets (from --set)"),
        # grid, params and potential keys are blamed on their own key, the sponge on both
        (["profile", "--set", "grid.r_sponge=20"], "grid.r_sponge = 20 must lie below grid.r_max = 8"),
        (["profile", "--set", "grid.r_max=-1"], "grid.r_max = -1 must lie in (0, inf)"),
        (["profile", "--set", "params.alpha=2"], "params.alpha = 2 must lie in (0, 4/3)"),
        (["profile", "--set", "params.eps=0"], "params.eps = 0 must lie in (0, inf)"),
        (["profile", "--set", "potential.a=0"], "potential.a = 0 must lie in (0, inf)"),
        # the finite end of each remaining bound
        (["profile", "--set", "potential.c_f=-1"], "potential.c_f = -1 must lie in [0, inf)"),
        (["simulate-primitive", "--set", "params.lam=-1"], "params.lam = -1 must lie in [0, inf)"),
        (["simulate-primitive", "--set", "params.mu=-1"], "params.mu = -1 must lie in [0, inf)"),
        (["profile", "--set", "params.rho_bar=0"], "params.rho_bar = 0 must lie in (0, inf)"),
        (["sweep", "--set", "params.horizon=0"], "params.horizon = 0 must lie in (0, inf)"),
        (["decay", "--set", "data.rho1_width=0"], "data.rho1_width = 0 must lie in (0, inf)"),
        (["audit-rei", "--set", "data.theta2_width=0"], "data.theta2_width = 0 must lie in (0, inf)"),
        # an output directory that cannot be made; an empty --output falls back to output.dir
        (["profile", "--set", "output.dir=", "--output", ""], "output.dir = ''"),
        (["profile", "--output", "some_file/sub"], "output directory some_file/sub"),
    ],
)
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, argv, key):
    # argv comes last, so its --set and --output win over SMALL's and tmp_path;
    # its relative paths name files in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes("[grid]\nn = 64  # ½\n".encode("latin-1"))
    (tmp_path / "syntax.cfg").write_text("[grid]\nn 64\n")
    (tmp_path / "unknown.cfg").write_text("[grid]\nwavelets = on\n")
    (tmp_path / "some_file").write_text("")
    assert main(["--output", str(tmp_path), *SMALL, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "nothere").exists()


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--eps", "0.4,0.2"], ["strichartz", "--p", "4"], ["strichartz", "--q", "12"]],
    ids=["sweep-eps", "strichartz-p", "strichartz-q"],
)
def test_inputs_come_from_the_configuration_only(tmp_path, capsys, argv):
    # sweep.eps_list, acoustic.p and acoustic.q are set with --set, not with flags of their own
    with pytest.raises(SystemExit) as exit_:
        main([*argv, *SMALL, "--output", str(tmp_path)])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_experimental_is_for_simulate_anelastic_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["profile", "--experimental", *SMALL, "--output", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--experimental" in capsys.readouterr().err
    assert not (tmp_path / "profile.csv").exists()


def test_one_parser_per_call(tmp_path, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["report", "--output", str(tmp_path)]) == 0
    assert built == [1]
    # options may come before the command as well
    assert main(["--output", str(tmp_path), "report"]) == 0
    assert built == [1, 1]


def test_internal_error_is_not_a_validation_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "build_profile", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["profile", *SMALL, "--output", str(tmp_path)])


def test_internal_error_in_sweep_member_propagates(tmp_path, monkeypatch):
    def broken(plan, traj):
        raise ValueError("internal bug")

    monkeypatch.setattr(harness, "run_case", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["sweep", *SMALL, "--output", str(tmp_path)])
