import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twotime.cli as cli
import twotime.correlators as correlators
from twotime.cli import main
from twotime.errors import CutoffWarning, ScenarioSchemaError, ScenarioSemanticError
from twotime.scenario import parse_scenario

MINIMAL = """
name = minimal
system.omega = 1.0
system.initial = coherent 1.0
tau.start = 0.0
tau.stop = 1.0
tau.count = 4
methods = regression
"""

THERMAL = """
name = thermal
system.omega = 1.0
system.kappa = 1.0
system.n_thermal = 0.5
system.initial = thermal 0.5
system.cutoff = 20
tau.start = 0.0
tau.stop = 4.0
tau.count = 8
methods = regression
"""

MULTI = """
name = multi
system.omega = 1.0
system.initial = coherent 1.0
system.cutoff = 35
system.t_prepare = 0.0
tau.start = 0.0
tau.stop = 2.0
tau.count = 4
methods = regression, propagator, qfunction_derivative
"""

# A random closed Monte Carlo request whose propagator rows sit up to 3.2
# standard errors from regression unless the per-row error includes the error
# of the normalising mean photon number.
MC_NORMALISATION = """
name = mc_normalisation
system.omega = 1.094849
system.initial = coherent -0.351956+0.66645j
tau.start = 0.0
tau.stop = 1.253969
tau.count = 3
methods = regression, propagator
integration.engine = monte_carlo_gaussian
integration.sample_count = 100000
integration.seed = 1051144968
"""

# The amplifying regime (|C| = 0.48 at tau = 4): tensor Gauss-Hermite misses
# g1(4) by about 20% yet reports abs_err = 0, and only the closed-form
# qfunction_derivative route, equal to the exact Bogoliubov value
# 3.6187+4.2594i, catches it.
AMPLIFYING = """
name = amplifying
system.omega = 0.1
system.xi = 0.5
system.initial = coherent 0.5
system.cutoff = 120
tau.start = 0.0
tau.stop = 4.0
tau.count = 2
methods = regression, propagator, qfunction_two_variable, qfunction_derivative
"""

OVERFLOWING = """
name = overflowing
system.omega = 1.0
system.kappa = 1e20
system.n_thermal = 0.1
system.initial = coherent 0.5
system.cutoff = 12
tau.start = 0.0
tau.stop = 5.0
tau.count = 4
methods = regression
"""


def write(tmp_path, text, name="scn.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParsing:
    def test_minimal_defaults(self, tmp_path):
        scn = parse_scenario(write(tmp_path, MINIMAL))
        assert scn.system.cutoff.n_max == 40
        assert scn.L_max == 12
        assert scn.integration.seed == 42
        assert scn.integration.nodes_per_axis == 24
        assert scn.system.t_prepare == 0.0  # kappa = 0 default
        assert len(scn.taus) == 4
        assert "system.cutoff" in scn.settings["defaulted_keys"]

    def test_t_prepare_default_tracks_kappa(self, tmp_path):
        scn = parse_scenario(write(tmp_path, THERMAL))
        assert scn.system.t_prepare == pytest.approx(20.0)

    def test_phase_space_with_damping_rejected(self, tmp_path):
        bad = THERMAL.replace("methods = regression", "methods = propagator")
        bad = bad.replace("system.initial = thermal 0.5", "system.initial = coherent 1.0")
        with pytest.raises(ScenarioSemanticError, match="closed dynamics"):
            parse_scenario(write(tmp_path, bad))

    def test_single_tau_point_rejected(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="tau.count"):
            parse_scenario(write(tmp_path, MINIMAL.replace("tau.count = 4", "tau.count = 1")))

    def test_unknown_key_with_line_number(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="line 3"):
            parse_scenario(write(tmp_path, "name = x\n\nbogus.key = 1\n"
                                           + MINIMAL.split("name = minimal")[1]))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="duplicate"):
            parse_scenario(write(tmp_path, MINIMAL + "\nname = again\n"))

    def test_malformed_number(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="real number"):
            parse_scenario(write(tmp_path, MINIMAL.replace("tau.stop = 1.0",
                                                           "tau.stop = fast")))

    def test_negative_tau_start(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="tau.start"):
            parse_scenario(write(tmp_path, MINIMAL.replace("tau.start = 0.0",
                                                           "tau.start = -1.0")))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="methods"):
            parse_scenario(write(tmp_path, MINIMAL.replace("methods = regression", "")))

    def test_unknown_method(self, tmp_path):
        with pytest.raises(ScenarioSchemaError, match="unknown method"):
            parse_scenario(write(tmp_path, MINIMAL.replace("regression", "magic")))

    def test_comments_and_complex_values(self, tmp_path):
        text = MINIMAL.replace("system.omega = 1.0",
                               "system.omega = 1.0  # rad per unit time\nsystem.xi = 0.1+0.05j")
        scn = parse_scenario(write(tmp_path, text))
        assert scn.system.hamiltonian.xi == 0.1 + 0.05j

    def test_spaces_around_complex_sign(self, tmp_path):
        text = MINIMAL.replace("system.initial = coherent 1.0",
                               "system.initial = coherent 1.0 - 0.5j\nsystem.xi = 0.2 + 0.1j")
        scn = parse_scenario(write(tmp_path, text))
        assert scn.system.hamiltonian.xi == 0.2 + 0.1j
        assert scn.system.initial_state.amplitude == 1.0 - 0.5j

    def test_superposition_initial(self, tmp_path):
        text = MINIMAL.replace("system.initial = coherent 1.0",
                               "system.initial = superposition 0.8:0, 0.6:2")
        scn = parse_scenario(write(tmp_path, text))
        rho = scn.system.initial_state.build(scn.system.cutoff)
        assert abs(np.trace(rho.mat) - 1) < 1e-12


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", str(write(tmp_path, MINIMAL))]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_file_exit_1(self, tmp_path, capsys):
        bad = write(tmp_path, MINIMAL.replace("tau.count = 4", "tau.count = 1"))
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path):
        scn = write(tmp_path, THERMAL)
        assert main(["run", str(scn), "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "thermal_series.csv").read_text().splitlines()
        assert csv[0] == "tau,method,g1_re,g1_im,g2,abs_err"
        assert len(csv) == 1 + 8
        report = (tmp_path / "thermal_report.txt").read_text()
        assert "rng seed = 42" in report
        assert "defaulted" in report
        assert "bunched" in report

    def test_oracle_mode_forces_regression(self, tmp_path):
        scn = write(tmp_path, MULTI)
        assert main(["oracle", str(scn), "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "multi_series.csv").read_text()
        assert "propagator" not in csv
        assert "regression" in csv

    def test_oracle_takes_no_seed(self, tmp_path, capsys):
        # the oracle runs regression only, which draws no random numbers
        scn = write(tmp_path, MULTI)
        assert main(["oracle", str(scn), "--seed", "3", "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "multi_series.csv").exists()

    def test_method_restriction(self, tmp_path):
        scn = write(tmp_path, MULTI)
        assert main(["run", str(scn), "--method", "regression", "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "multi_series.csv").read_text()
        assert "propagator" not in csv

    def test_parser_reused_without_carrying_methods(self, tmp_path):
        # one parser serves every call in a process; each call's --method list is its own
        scn = write(tmp_path, MULTI)
        assert main(["run", str(scn), "--method", "regression", "--out", str(tmp_path)]) == 0
        parser = cli._parser()
        assert main(["run", str(scn), "--method", "propagator", "--out", str(tmp_path)]) == 0
        assert cli._parser() is parser
        csv = (tmp_path / "multi_series.csv").read_text()
        assert "propagator" in csv and "regression" not in csv

    def test_parser_not_built_at_import(self):
        probe = "import twotime.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                              check=True)
        assert proc.stdout.strip() == "0"

    def test_method_not_declared(self, tmp_path):
        scn = write(tmp_path, MINIMAL)
        assert main(["run", str(scn), "--method", "propagator",
                     "--out", str(tmp_path)]) == 1

    def test_cutoff_override_echoed(self, tmp_path):
        scn = write(tmp_path, THERMAL)
        assert main(["run", str(scn), "--cutoff", "18", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "thermal_report.txt").read_text()
        assert "18  [cli override]" in report
        # a key set on the command line is not echoed as defaulted
        scn = write(tmp_path, THERMAL.replace("system.cutoff = 20\n", ""))
        assert main(["run", str(scn), "--cutoff", "18", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "thermal_report.txt").read_text()
        assert "system.cutoff = 18  [cli override]" in report
        assert "integration.seed = 3  [cli override]" in report
        (defaulted,) = [ln for ln in report.splitlines() if "defaulted_keys" in ln]
        assert "system.cutoff" not in defaulted
        assert "integration.seed" not in defaulted
        assert "integration.engine" in defaulted

    def test_repeated_method_exit_1(self, tmp_path, capsys):
        scn = write(tmp_path, MULTI)
        assert main(["run", str(scn), "--method", "regression", "--method", "regression",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --method: methods list contains duplicates")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cutoff, message", [
        ("11", "error: lmax must not exceed system.cutoff"),
        ("0", "error: --cutoff: n_max must be a positive integer"),
    ])
    def test_cutoff_override_validated(self, tmp_path, capsys, cutoff, message):
        # coherent_closed runs qfunction_derivative with the default lmax = 12
        scn = Path(__file__).resolve().parent.parent / "scenarios" / "coherent_closed.cfg"
        assert main(["run", str(scn), "--cutoff", cutoff, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not list(tmp_path.iterdir())

    def test_state_prepared_once_per_run(self, tmp_path, monkeypatch):
        # the regression route and the report's leakage line share rho(t_prepare)
        builds = []
        build = correlators.InitialState.build
        monkeypatch.setattr(correlators.InitialState, "build",
                            lambda state, cutoff: builds.append(state) or build(state, cutoff))
        assert main(["run", str(write(tmp_path, THERMAL)), "--out", str(tmp_path)]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("method", ["qfunction_two_variable", "qfunction_derivative"])
    def test_q_route_audits_prepared_state(self, tmp_path, capsys, method):
        # the state leaves the cutoff entirely; a lone Q route reports that,
        # not the vacuum-like mean photon number its integrals read from it
        text = (MINIMAL.replace("coherent 1.0", "coherent 1e30")
                .replace("methods = regression", f"methods = {method}") + "system.cutoff = 20\n")
        with pytest.warns(CutoffWarning, match="norm deficit"):
            assert main(["run", str(write(tmp_path, text)), "--out", str(tmp_path)]) == 1
        assert "trace leakage" in capsys.readouterr().err

    def test_self_check_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(correlators, "CONJUGACY_TOL", -1.0)
        scn = write(tmp_path, THERMAL)
        assert main(["run", str(scn), "--out", str(tmp_path)]) == 1
        assert "error: ordering conjugacy violated" in capsys.readouterr().err

    def test_cross_validation_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CROSS_VALIDATION_TOL", 1e-18)
        scn = write(tmp_path, MULTI)
        assert main(["run", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cross-validation failure" in err
        report = (tmp_path / "multi_report.txt").read_text()
        assert "FAIL near tau" in report

    def test_amplifying_gauss_hermite_bias_exit_2(self, tmp_path, capsys):
        assert main(["run", str(write(tmp_path, AMPLIFYING)), "--out", str(tmp_path)]) == 2
        assert "cross-validation failure" in capsys.readouterr().err
        report = (tmp_path / "amplifying_report.txt").read_text()
        pair = [line for line in report.splitlines() if "propagator vs qfunction_derivative:" in line]
        assert len(pair) == 1 and pair[0].endswith("[FAIL near tau = 4]")
        rows = (tmp_path / "amplifying_series.csv").read_text().splitlines()[1:]
        fields = [row.split(",") for row in rows if row.startswith("4,")]
        g1 = {f[1]: complex(float(f[2]), float(f[3])) for f in fields}
        assert abs(g1["qfunction_derivative"] - (3.6187 + 4.2594j)) < 1e-4

    @pytest.mark.parametrize("line, message", [
        ("system.t_prepare = -1.0", "error: line 9: system.t_prepare must be >= 0"),
        ("lmax = -3", "error: line 9: lmax must be >= 1"),
        ("system.trace_budget = -1", "error: line 9: unknown key 'system.trace_budget'"),
        ("integration.seed = -1", "error: line 9: integration.seed must be >= 0"),
        ("integration.nodes_per_axis = 65",
         "error: line 9: quadrature needs 8 <= nodes_per_axis <= 64, got 65"),
        ("integration.engine = trapezoid",
         "error: line 9: unknown integration engine 'trapezoid'"),
        ("system.omega = nan", "error: line 3: system.omega must be finite"),
        ("tau.stop = inf", "error: line 6: tau.stop must be finite"),
        ("tau.count = 1", "error: line 7: tau.count must be >= 2"),
        ("tau.stop = 0.0", "error: line 6: tau.stop must exceed tau.start"),
        ("system.kappa = -1", "error: line 9: system.kappa must be >= 0"),
        ("system.cutoff = 0", "error: line 9: system.cutoff must be >= 1"),
        ("system.t_prepare = inf", "error: line 9: system.t_prepare must be finite"),
        ("system.eta = 1+infj", "error: line 9: system.eta must be finite"),
        ("system.eta = 0 5", "error: line 9: system.eta expects a number, got '0 5'"),
        ("system.initial = coherent 1 2",
         "error: line 4: malformed system.initial value 'coherent 1 2'"),
        ("system.initial = thermal -1", "error: line 4: system.initial 'thermal -1'"),
        ("system.initial = superposition 0:0, 0:1",
         "error: line 4: system.initial 'superposition 0:0, 0:1'"),
        ("system.initial = coherent nan", "error: line 4: system.initial 'coherent nan'"),
        ("system.initial = fock -1",
         "error: line 4: system.initial 'fock -1': Fock level must be >= 0, got -1"),
        ("system.initial = superposition 1:0, 1:-2",
         "error: line 4: system.initial 'superposition 1:0, 1:-2': "
         "Fock level must be >= 0, got -2"),
    ])
    def test_bad_scenario_value_exit_1(self, tmp_path, capsys, line, message):
        # the line replaces MINIMAL's line for the same key, or is appended
        key = line.split(" = ")[0]
        text = "\n".join(line if old.startswith(key + " = ") else old
                         for old in MINIMAL.split("\n"))
        scn = write(tmp_path, text if line in text else text + line + "\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_small_monte_carlo_sample_count_names_its_line(self, tmp_path, capsys):
        text = MC_NORMALISATION.replace("sample_count = 100000", "sample_count = 100")
        assert main(["run", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 10: Monte Carlo needs sample_count >= 10^4")

    # a rate so large that exp(L tau) overflows to NaN inside expm
    @pytest.mark.parametrize("t_prepare, message", [
        ("0", "error: regression numerators are not finite"),
        ("1", "error: density matrix has non-finite entries"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evolution_exit_1(self, tmp_path, capsys, t_prepare, message):
        scn = write(tmp_path, OVERFLOWING + f"system.t_prepare = {t_prepare}\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["propagator", "qfunction_two_variable",
                                        "qfunction_derivative"])
    def test_vacuum_phase_space_run_exit_1(self, tmp_path, capsys, method):
        text = MINIMAL.replace("coherent 1.0", "vacuum").replace("regression", method)
        scn = write(tmp_path, text + "system.cutoff = 12\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: mean photon number")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["regression", "propagator"])
    def test_weak_coherent_exact_route_exit_0(self, tmp_path, method):
        # n = 1e-10 lies above the mean-photon-number floor of the exact routes
        text = MINIMAL.replace("coherent 1.0", "coherent 1e-5").replace("regression", method)
        assert main(["run", str(write(tmp_path, text)), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "minimal_series.csv").read_text().splitlines()[1:]
        g2 = np.array([float(row.split(",")[4]) for row in rows])
        assert np.allclose(g2, 1.0, atol=1e-6)

    @pytest.mark.parametrize("flags, message", [
        (["--cutoff", "abc"], "argument --cutoff: invalid int value: 'abc'"),
        (["--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["--samples", "10"], "unrecognized arguments: --samples 10"),
    ])
    def test_usage_error_exit_1(self, tmp_path, capsys, flags, message):
        # exit 2 is the cross-validation code, so argparse's own exit is mapped to 1
        scn = write(tmp_path, MINIMAL)
        assert main(["run", str(scn), *flags, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: twotime")
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_help_exit_0(self, capsys):
        assert main(["run", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: twotime run")

    # each overflows a Python float: |alpha|^2 in coherent_vector, cos(W t) in
    # propagator._series, t^j in its Taylor branch at the last tau, and the entries of
    # dynamics.hamiltonian_matrix (reported before numpy can warn)
    @pytest.mark.parametrize("lines", [
        ["system.initial = coherent 1e155"],
        ["system.xi = 1e154", "methods = propagator"],
        ["system.omega = 0.0", "system.eta = 0.1", "tau.stop = 1e154", "methods = propagator"],
        ["system.omega = 1e308", "system.initial = coherent 0.5", "system.cutoff = 10"],
    ])
    def test_overflow_exit_1(self, tmp_path, capsys, lines):
        keys = {line.split(" = ")[0] for line in lines}
        kept = [old for old in MINIMAL.split("\n") if old.split(" = ")[0] not in keys]
        scn = write(tmp_path, "\n".join(kept + lines) + "\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: double-precision overflow")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_bogoliubov_map_exit_1(self, tmp_path, capsys):
        # the map at tau = 0 is the identity whatever omega; the next tau overflows
        lines = ["system.omega = 1e300", "system.initial = coherent 0.5", "system.cutoff = 10",
                 "lmax = 8", "methods = qfunction_derivative"]
        keys = {line.split(" = ")[0] for line in lines}
        kept = [old for old in MINIMAL.split("\n") if old.split(" = ")[0] not in keys]
        scn = write(tmp_path, "\n".join(kept + lines).replace("tau.count = 4", "tau.count = 3"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Bogoliubov map not finite at t = 0.5 for omega = 1e+300")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("omega, code", [(1e10, 0), (1e12, 1)])
    def test_unresolved_phase_exit_1(self, tmp_path, capsys, omega, code):
        # a phase (|omega| + |xi|) t above PHASE_LIMIT (4.5e10) has no correct
        # digit at the 1e-5 tolerance; unchecked, omega 1e12 exits 2 as the routes disagree
        lines = [f"system.omega = {omega}", "system.initial = coherent 0.5",
                 "system.cutoff = 20", "tau.count = 3",
                 "methods = regression, propagator, qfunction_two_variable, qfunction_derivative"]
        keys = {line.split(" = ")[0] for line in lines}
        kept = [old for old in MINIMAL.split("\n") if old.split(" = ")[0] not in keys]
        scn = write(tmp_path, "\n".join(kept + lines) + "\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "the phase (|omega| + |xi|) t" in err
            assert not (tmp_path / "out").exists()
        else:
            assert err == ""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_normal_order_weights_exit_1(self, tmp_path, capsys):
        # p! overflows from p = 171: the non-finite mean photon number is the
        # error, with no numpy warning printed before it
        lines = ["system.initial = coherent 0.5", "system.cutoff = 180", "lmax = 180",
                 "methods = qfunction_derivative"]
        keys = {line.split(" = ")[0] for line in lines}
        kept = [old for old in MINIMAL.split("\n") if old.split(" = ")[0] not in keys]
        scn = write(tmp_path, "\n".join(kept + lines) + "\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: mean photon number is not finite")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_1(self, tmp_path, capsys):
        scn = Path(__file__).resolve().parent.parent / "scenarios" / "coherent_mc.cfg"
        assert main(["run", str(scn), "--seed", "-1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed: integration.seed must be >= 0")
        assert not list(tmp_path.iterdir())

    def test_monte_carlo_error_covers_normalisation(self, tmp_path):
        scn = write(tmp_path, MC_NORMALISATION)
        assert main(["run", str(scn), "--out", str(tmp_path)]) == 0

    def test_multi_method_cross_validation_ok(self, tmp_path):
        scn = write(tmp_path, MULTI)
        assert main(["run", str(scn), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "multi_report.txt").read_text()
        assert "[ok]" in report

    def test_fock_scenario_report_shows_zero_g2(self, tmp_path):
        fock = Path(__file__).resolve().parent.parent / "scenarios" / "fock_antibunching.cfg"
        assert main(["run", str(fock), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "fock_antibunching_report.txt").read_text()
        assert "g2(0) = 0 -> sub_poissonian" in report
        assert "antibunched" in report


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        scn = write(tmp_path, THERMAL)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", str(scn), "--out", str(out1)]) == 0
        assert main(["run", str(scn), "--out", str(out2)]) == 0
        assert (out1 / "thermal_series.csv").read_bytes() == \
               (out2 / "thermal_series.csv").read_bytes()

    def test_seed_override_changes_nothing_deterministic(self, tmp_path):
        # quadrature engine ignores the seed; CSV must be identical
        scn = write(tmp_path, THERMAL)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", str(scn), "--out", str(out1)]) == 0
        assert main(["run", str(scn), "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "thermal_series.csv").read_bytes() == \
               (out2 / "thermal_series.csv").read_bytes()


BUNDLED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.cfg"))


@pytest.mark.parametrize("cfg", BUNDLED, ids=[p.name for p in BUNDLED])
def test_bundled_scenario_runs_clean(cfg, tmp_path):
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    (report,) = tmp_path.glob("*_report.txt")
    assert "FAIL" not in report.read_text()


SCIPY_PROBE = """
import sys
from twotime import cli

def scipy_modules():
    return sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

def futures():
    return "concurrent.futures" in sys.modules

print("scipy:", "import", scipy_modules(), futures())
for cfg in sys.argv[2:]:
    code = cli.main(["run", cfg, "--out", sys.argv[1]])
    print("scipy:", cfg.rsplit("/", 1)[-1], code, scipy_modules(), futures())
"""


def test_closed_runs_import_no_scipy(tmp_path):
    # SciPy serves only the damped path, and is imported by its first use;
    # concurrent.futures only the Monte Carlo pool, which a Gauss-Hermite run never starts
    root = Path(__file__).resolve().parent.parent
    closed = ["coherent_closed", "coherent_mc", "driven_vacuum", "squeezed_vacuum"]
    cfgs = [str(root / "scenarios" / f"{name}.cfg") for name in closed + ["thermal_steady"]]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path), *cfgs],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=True)
    lines = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("scipy:")]
    assert lines[0] == ["import", "0", "False"]
    assert lines[1] == ["coherent_closed.cfg", "0", "0", "False"]
    assert [line[:3] for line in lines[1:5]] == [[f"{name}.cfg", "0", "0"] for name in closed]
    assert lines[5][:2] == ["thermal_steady.cfg", "0"] and int(lines[5][2]) > 0


def test_damped_run_imports_no_scipy_sparse(tmp_path):
    # the damped path imports scipy.linalg for the block expm and fills L's
    # blocks with numpy alone
    root = Path(__file__).resolve().parent.parent
    probe = ("import sys\n"
             "from twotime import cli\n"
             "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
             "sparse = any(m.split('.')[:2] == ['scipy', 'sparse'] for m in sys.modules)\n"
             "print('scipy:', code, 'scipy.linalg' in sys.modules, sparse)\n")
    proc = subprocess.run([sys.executable, "-c", probe,
                           str(root / "scenarios" / "thermal_steady.cfg"), str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=True)
    line = [line for line in proc.stdout.splitlines() if line.startswith("scipy:")][-1]
    assert line.split()[1:] == ["0", "True", "False"]


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "twotime.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "twotime" in proc.stdout
