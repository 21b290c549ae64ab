import dataclasses
import json
import logging
import math
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cyclicity.cli as cli_mod
from cyclicity import capacity, freespace, indices, mixednorm, spaces
from cyclicity.cli import main, parse_polynomial, parse_space
from cyclicity.errors import ArgumentError
from cyclicity.poly import Polynomial, TermArray, invert_power_series, jsonsafe
from cyclicity.spaces import dirichlet_type, drury_arveson, hardy
from helpers import subprocess_env
from test_acceptance import CLI_CONFIGS

# the public names of the `cyclicity` package, each read from the submodule
# that defines it; its lazy namespace must keep every one
PACKAGE_EXPORTS = frozenset("""
    BoundaryCloud DimensionEstimate EquilibriumResult ObstructionReport arc_cloud box_dimension
    circle_cloud interior_zero_probe neighborhood_capacity obstruction_report riesz_equilibrium
    sample_zero_set sphere_cap_cloud ArgumentError ConditioningError CyclicityError
    DegenerateInputError DegreeRangeError DimensionMismatchError NumericFailureError
    SingularInversionError CompressionReport FreePolynomial FreeSpaceSpec abelianize
    compression_check evaluate_on_tuple free_besov free_hardy free_subspace_distance
    row_contraction_inversion_report sample_row_contraction tuple_from_json tuple_to_json words
    ApproximantResult PerturbationReport SweepReport WeightStabilityReport
    check_perturbation_bound check_weight_stability index_sweep
    inverse_truncation_multiplier_norms multiplier_norm_lower perturb_weights
    power_membership_residual realized_weight_deviation subspace_distance MixedIndexResult
    MixedSpec VarExpSpec luxemburg_norm mixed_index mixed_norm modular Polynomial
    invert_power_series mult_operator_section multi_indices MomentSequence SpaceSpec bergman
    dirichlet_type drury_arveson hardy preset sphere_moment
""".split())


def run_cli(tmp_path, command, config, out="out", extra=()):
    """Write config as JSON and run the command on it; a string "raw:<text>"
    in config is written as the bare text, for number literals such as 1e400
    that json.dumps cannot produce."""
    cfg = tmp_path / f"{command}.config.json"
    cfg.write_text(re.sub(r'"raw:([^"]*)"', r"\1", json.dumps(config)))
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / out), *extra])
    return rc, tmp_path / out / f"{command}.json"


class TestParsing:
    def test_space_string_form(self):
        spec = parse_space("hardy(2)")
        assert spec.d == 2

    def test_space_preset_object(self):
        spec = parse_space({"preset": "bergman", "d": 1, "maxDegree": 10})
        assert spec.max_degree == 10

    def test_space_rejects_garbage(self):
        with pytest.raises(ArgumentError):
            parse_space("hardy")

    def test_polynomial_forms(self):
        p = parse_polynomial({"coeffs1d": [1, -1]})
        assert p.degree == 1
        q = parse_polynomial([{"exponents": [1, 0], "re": 2.0, "im": -1.0}])
        assert q.d == 2


class TestCommands:
    def test_index_writes_result(self, tmp_path):
        rc, path = run_cli(
            tmp_path,
            "index",
            {"space": "hardy(1)", "function": {"coeffs1d": [1, -1]}, "n": 5},
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schemaVersion"] == 1
        assert payload["result"]["residual"] == pytest.approx(math.sqrt(1 / 7))
        assert "threads" not in payload["config"]

    def test_sweep_csv_squares_to_closed_form(self, tmp_path):
        rc, path = run_cli(
            tmp_path,
            "sweep",
            {"space": "hardy(1)", "function": {"coeffs1d": [1, -1]}, "nMax": 10},
        )
        assert rc == 0
        csv_path = path.with_suffix(".csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "degree,residual,gramCondition,solveMethod"
        for row in lines[1:]:
            degree, residual, _, _ = row.split(",")
            assert float(residual) ** 2 == pytest.approx(
                1.0 / (int(degree) + 2), rel=1e-9
            )

    def test_unit_function_index(self, tmp_path):
        rc, path = run_cli(
            tmp_path,
            "index",
            {"space": "hardy(1)", "function": {"coeffs1d": [1]}, "n": 0},
        )
        assert rc == 0
        assert json.loads(path.read_text())["result"]["residual"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_capacity_empty_cloud(self, tmp_path):
        rc, path = run_cli(
            tmp_path,
            "capacity",
            {"cloud": {"kind": "points", "d": 1, "points": []}, "alpha": 0.0},
        )
        assert rc == 0
        assert json.loads(path.read_text())["result"]["capacity"] == 0.0

    def test_report_verdict(self, tmp_path):
        rc, path = run_cli(
            tmp_path,
            "report",
            {
                "space": "hardy(1)",
                "function": {"coeffs1d": [0, 1]},
                "nMax": 8,
                "alpha": 0.0,
                "seed": 1,
            },
        )
        assert rc == 0
        assert (
            json.loads(path.read_text())["result"]["verdict"] == "obstruction detected"
        )

    def test_config_round_trip_revalidates(self, tmp_path):
        config = {"space": "hardy(1)", "function": {"coeffs1d": [1, -1]}, "n": 3}
        rc, path = run_cli(tmp_path, "index", config)
        assert rc == 0
        embedded = json.loads(path.read_text())["config"]
        cfg2 = tmp_path / "again.json"
        cfg2.write_text(json.dumps(embedded))
        rc2 = main(["index", "--config", str(cfg2), "--out", str(tmp_path / "again")])
        assert rc2 == 0

    def test_mixed_index_warns_per_unconverged_budget(self, tmp_path, monkeypatch, caplog):
        real = mixednorm.mixed_index

        def stalled_at_one(spec, f, n):
            result = real(spec, f, n)
            result.converged = n != 1
            return result

        monkeypatch.setattr(mixednorm, "mixed_index", stalled_at_one)
        config = {
            "mixedSpec": {"d": 1, "N": 0, "p": 3, "q": 2, "radial": {"measure": "point_mass"},
                          "angular": {"count": 64}},
            "function": {"coeffs1d": [1, -1]},
            "nMax": 2,
        }
        with caplog.at_level(logging.WARNING, logger="cyclicity"):
            rc, path = run_cli(tmp_path, "mixed-index", config)
        assert rc == 0
        results = json.loads(path.read_text())["result"]["results"]
        assert [r["converged"] for r in results] == [True, False, True]
        warned = [r.getMessage() for r in caplog.records if "not converged" in r.getMessage()]
        assert len(warned) == 1 and "n=1" in warned[0]


class TestValidationAndExitCodes:
    def test_missing_key_exits_two(self, tmp_path):
        rc, _ = run_cli(tmp_path, "index", {"space": "hardy(1)"})
        assert rc == 2

    def test_bad_json_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["index", "--config", str(cfg)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["index", "--config", str(tmp_path / "absent.json")]) == 2

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["index", "--config", str(cfg)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_seed_required_for_free_corona(self, tmp_path):
        rc, _ = run_cli(
            tmp_path,
            "corona-check",
            {"mode": "free", "d": 2, "rho": 0.9, "samples": 5, "size": 4},
        )
        assert rc == 2

    @pytest.mark.parametrize("change", [{"rho": 1.5}, {"size": 0}])
    def test_free_corona_rejects_non_contractions_exits_two(self, tmp_path, change):
        config = {"mode": "free", "d": 2, "rho": 0.5, "seed": 1, "samples": 2, "size": 3}
        rc, path = run_cli(tmp_path, "corona-check", {**config, **change})
        assert rc == 2
        assert not path.exists()

    @pytest.mark.parametrize(
        "command, key, spec",
        [
            ("mixed-norm", "mixedSpec", {"p": 2, "q": 2}),
            ("varexp-norm", "varExpSpec", {"exponent": {"a": 2, "b": 1, "c": 2}}),
        ],
    )
    def test_non_object_angular_exits_two(self, tmp_path, command, key, spec):
        spec = {"d": 1, "N": 0, "radial": {"measure": "area", "count": 8}, "angular": 5, **spec}
        rc, _ = run_cli(tmp_path, command, {key: spec, "function": {"coeffs1d": [1, -1]}})
        assert rc == 2

    def test_non_object_free_space_exits_two(self, tmp_path):
        config = {"freeSpace": 3, "function": [{"letters": [], "re": 1}], "n": 1}
        rc, _ = run_cli(tmp_path, "free-index", config)
        assert rc == 2

    @pytest.mark.parametrize("command, config", [
        ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2, "maxLength": 60}}),
        ("compress-check", {"d": 2}),
    ], ids=["free-index", "compress-check"])
    def test_oversized_free_budget_exits_two(self, tmp_path, capsys, command, config):
        # words of length <= 51 over 2 letters number 2^52 - 1, past the
        # 2^22 keys a design may count
        function = [{"letters": [], "re": 1}, {"letters": [1], "re": -0.5}]
        rc, path = run_cli(tmp_path, command, {**config, "function": function, "n": 50})
        assert rc == 2
        assert not path.exists()
        assert "number more than 4194304" in capsys.readouterr().err

    def test_sparse_high_degree_zero_set_exits_two(self, tmp_path):
        terms = [{"exponents": [0], "re": -1.0}, {"exponents": [20000], "re": 1.0}]
        cloud = {"kind": "zero_set", "function": terms, "d": 1}
        rc, _ = run_cli(tmp_path, "capacity", {"cloud": cloud, "alpha": 0.0})
        assert rc == 2

    def test_mixed_index_negative_n_max_exits_two(self, tmp_path):
        spec = {"d": 1, "N": 0, "p": 2, "q": 2, "radial": {"measure": "point_mass"},
                "angular": {"count": 16}}
        config = {"mixedSpec": spec, "function": {"coeffs1d": [1, -1]}, "nMax": -1}
        rc, path = run_cli(tmp_path, "mixed-index", config)
        assert rc == 2
        assert not path.exists()

    @pytest.mark.parametrize("tol", [0, -1])
    def test_nonpositive_equilibrium_tol_exits_two(self, tmp_path, tol):
        cloud = {"kind": "arc", "angle": 1.5707963267948966, "count": 64}
        rc, _ = run_cli(tmp_path, "capacity", {"cloud": cloud, "alpha": 0.0, "tol": tol})
        assert rc == 2

    def test_nonpositive_zero_set_tol_exits_two(self, tmp_path):
        terms = [{"exponents": [0], "re": 1.0}, {"exponents": [1], "re": -1.0}]
        cloud = {"kind": "zero_set", "function": terms, "tol": -1}
        rc, _ = run_cli(tmp_path, "capacity", {"cloud": cloud, "alpha": 0.0})
        assert rc == 2
        config = {"space": "hardy(1)", "function": terms, "nMax": 2, "alpha": 0.0,
                  "zeroTol": -1}
        rc, _ = run_cli(tmp_path, "report", config)
        assert rc == 2

    @pytest.mark.parametrize(
        "command, config",
        [
            ("index", {"space": "hardy(1)", "n": 2, "function": [
                {"exponents": [0], "re": 1}, {"exponents": [1], "re": -1},
                {"exponents": [1], "re": -1}]}),
            ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2}, "n": 2, "function": [
                {"letters": [], "re": 1}, {"letters": [2], "re": -1},
                {"letters": [2], "re": -1}]}),
        ],
    )
    def test_repeated_term_exits_two(self, tmp_path, command, config):
        rc, _ = run_cli(tmp_path, command, config)
        assert rc == 2

    def test_schema_version_gate(self, tmp_path):
        rc, _ = run_cli(
            tmp_path,
            "index",
            {
                "schemaVersion": 99,
                "space": "hardy(1)",
                "function": {"coeffs1d": [1]},
                "n": 0,
            },
        )
        assert rc == 2

    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch):
        from cyclicity.errors import NumericFailureError

        def boom(config):
            raise NumericFailureError("synthetic")

        monkeypatch.setitem(cli_mod.COMMANDS, "index", boom)
        rc, _ = run_cli(
            tmp_path,
            "index",
            {"space": "hardy(1)", "function": {"coeffs1d": [1]}, "n": 0},
        )
        assert rc == 3

    def test_internal_error_exits_one_with_a_traceback(self, tmp_path):
        # a builtin error inside a solver is a bug, not a bad config
        code = ("import sys, cyclicity.cli, cyclicity.indices\n"
                "def broken(design, target):\n"
                "    raise KeyError('injected')\n"
                "cyclicity.indices.solve_least_squares = broken\n"
                "sys.exit(cyclicity.cli.main(sys.argv[1:]))\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": "hardy(1)", "function": _ONE_MINUS_Z, "n": 2}))
        proc = subprocess.run(
            [sys.executable, "-c", code, "index", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, env=subprocess_env(),
        )
        assert proc.returncode == 1
        assert b"Traceback" in proc.stderr and b"KeyError: 'injected'" in proc.stderr
        assert not (tmp_path / "out" / "index.json").exists()

    def test_box_scales_stop_where_box_indices_fit_an_int64(self, tmp_path, capsys):
        config = {"cloud": {"kind": "arc", "angle": 1.0, "count": 64}, "jMax": 62}
        rc, _ = run_cli(tmp_path, "dimension", config, out="fits")
        assert rc == 0
        rc, path = run_cli(tmp_path, "dimension", {**config, "jMax": 63}, out="overflows")
        assert rc == 2
        assert not path.exists()
        assert "j_max <= 62" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            # N is a derivative order, which only moment-based spaces apply
            ("index", {"space": {"kind": "drury_arveson", "d": 1, "N": 1},
                       "function": {"coeffs1d": [1, -1]}, "n": 2}),
            # free Hardy has unit weights, so a smoothness would be dropped
            ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2, "s": 2.0},
                            "function": [{"letters": [], "re": 1}], "n": 1}),
            # a string is not a coefficient list
            ("index", {"space": "hardy(1)", "function": {"coeffs1d": "12"}, "n": 2}),
            # an entry is a number or an [re, im] pair, never a longer list
            ("index", {"space": "hardy(1)", "function": {"coeffs1d": [[1, 2, 3]]}, "n": 2}),
        ],
        ids=["drury-arveson-N", "free-hardy-s", "coeffs1d-string", "coeffs1d-triple"],
    )
    def test_ignored_config_values_exit_two(self, tmp_path, command, config):
        rc, path = run_cli(tmp_path, command, config)
        assert rc == 2
        assert not path.exists()

    def test_cloud_too_large_for_the_packed_route_exits_two(self, tmp_path):
        # 2^15 + 1 cap points would take 8.6 GB of packed kernel and factor;
        # the refusal comes before any of it is allocated
        cfg = tmp_path / "capacity.json"
        cloud = {"kind": "sphere_cap", "count": (1 << 15) + 1, "polarAngle": 1.0}
        cfg.write_text(json.dumps({"cloud": cloud, "alpha": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclicity", "capacity", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert "at most 32768 points" in proc.stderr
        assert not (tmp_path / "out" / "capacity.json").exists()

    def test_overflowed_equilibrium_exits_three(self, tmp_path, capsys):
        # ||x - y||^-200 overflows on a 64-point arc of opening 1
        cloud = {"kind": "arc", "angle": 1.0, "count": 64}
        with np.errstate(over="ignore", invalid="ignore"):
            rc, path = run_cli(tmp_path, "capacity", {"cloud": cloud, "alpha": 200})
        assert rc == 3
        assert not path.exists()
        assert "numeric failure" in capsys.readouterr().err


_ONE_MINUS_Z = {"coeffs1d": [1, -1]}
_ARC = {"kind": "arc", "angle": 1.5707963267948966, "count": 64}
_MIXED = {"d": 1, "N": 0, "p": 2, "q": 2, "radial": {"measure": "point_mass"},
          "angular": {"count": 16}}
_VAREXP = {"d": 1, "N": 0, "exponent": {"a": 2, "b": 1, "c": 2},
           "radial": {"measure": "area", "count": 8}, "angular": {"count": 16}}
_FREE_CORONA = {"mode": "free", "d": 2, "rho": 0.5, "samples": 2, "size": 3, "seed": 1}


def _index(**change):
    return "index", {"space": "hardy(1)", "function": _ONE_MINUS_Z, "n": 2, **change}


# configs whose key is misspelt, misplaced, of the wrong JSON type or out of
# range, each with the part of its `invalid config` line that names the object
# and the key
MISREAD = {
    "index-traget": (*_index(traget={"coeffs1d": [1, 1]}), "config key(s) ['traget']"),
    "commutative-corona-rho": ("corona-check", {"mode": "commutative", "space": "hardy(1)",
                                                "function": {"coeffs1d": [2, -1]}, "rho": 0.5},
                               "config key(s) ['rho']"),
    "weight-perturb-delta": ("perturb", {"variant": "weight", "space": "hardy(1)",
                                         "function": _ONE_MINUS_Z, "n": 2, "epsilon": 0.05,
                                         "seed": 1, "delta": {"coeffs1d": [0, 0.1]}},
                             "config key(s) ['delta']"),
    "arc-cloud-alpha": ("capacity", {"cloud": {**_ARC, "alpha": 2}, "alpha": 0},
                        "cloud key(s) ['alpha']"),
    "preset-N": (*_index(space={"preset": "hardy", "d": 1, "N": 1}),
                 "preset space key(s) ['N']"),
    "preset-moments": (*_index(space={"preset": "bergman", "d": 1, "moments": [1, 1, 1]}),
                       "preset space key(s) ['moments']"),
    "coeffs1d-d": (*_index(function={"coeffs1d": [1, -1], "d": 1}), "function key(s) ['d']"),
    "n-float": (*_index(n=2.5), "config key 'n'"),
    "n-bool": (*_index(n=True), "config key 'n'"),
    "n-string": (*_index(n="3"), "config key 'n'"),
    "sweep-tol-string": ("sweep", {"space": "hardy(1)", "function": _ONE_MINUS_Z, "nMax": 3,
                                   "tol": "0.5"}, "config key 'tol'"),
    "arc-count-float": ("capacity", {"cloud": {**_ARC, "count": 64.9}, "alpha": 0},
                        "cloud key 'count'"),
    "free-corona-seed-float": ("corona-check", {**_FREE_CORONA, "seed": 1.7},
                               "config key 'seed'"),
    "export-tuples-string": ("corona-check", {**_FREE_CORONA, "exportTuples": "no"},
                             "config key 'exportTuples'"),
    "term-imag": (*_index(function=[{"exponents": [0], "re": 1},
                                    {"exponents": [1], "imag": -1}]),
                  "term key(s) ['imag']"),
    "drury-arveson-moments": (*_index(space={"kind": "drury_arveson", "d": 1,
                                             "moments": [1, 1, 1]}),
                              "space key(s) ['moments']"),
    "free-space-maxlength": ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2,
                                                          "maxlength": 4},
                                            "function": [{"letters": [], "re": 1}], "n": 1},
                             "free space key(s) ['maxlength']"),
    "mixed-spec-include-constantterm": ("mixed-norm", {
        "mixedSpec": {**_MIXED, "includeConstantterm": False}, "function": _ONE_MINUS_Z},
        "MixedSpec key(s) ['includeConstantterm']"),
    "radial-cout": ("mixed-norm", {"mixedSpec": {**_MIXED, "radial": {"measure": "area",
                                                                      "cout": 8}},
                                   "function": _ONE_MINUS_Z}, "radial key(s) ['cout']"),
    # the point-mass rule has one node and takes no count
    "point-mass-count": ("mixed-norm", {"mixedSpec": {**_MIXED, "radial": {
        "measure": "point_mass", "count": 40}}, "function": _ONE_MINUS_Z},
        "radial key(s) ['count']"),
    # an unknown spec key is named with every key the spec takes
    "varexp-spec-bisectiontol": ("varexp-norm", {"varExpSpec": {**_VAREXP, "bisectiontol": 1e-9},
                                                 "function": _ONE_MINUS_Z},
                                 "allowed: ['N', 'angular', 'bisectionTol', 'd', 'exponent', "
                                 "'includeConstantTerm', 'radial']"),
    "exponent-B": ("varexp-norm", {"varExpSpec": {**_VAREXP, "exponent": {"a": 2, "B": 1}},
                                   "function": _ONE_MINUS_Z}, "exponent key(s) ['B']"),
    # nested integer and bool fields are checked, not cast: d = 2.7 read as 2,
    # 4.9 radial nodes as 4 and seed 1.5 as 1
    "free-space-d-float": ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2.7},
                                          "function": [{"letters": [], "re": 1}], "n": 1},
                           "free space key 'd'"),
    "radial-count-float": ("mixed-norm", {"mixedSpec": {**_MIXED, "radial": {
        "measure": "area", "count": 4.9}}, "function": _ONE_MINUS_Z}, "radial key 'count'"),
    "angular-seed-float": ("mixed-norm", {"mixedSpec": {**_MIXED, "angular": {
        "count": 16, "seed": 1.5}}, "function": _ONE_MINUS_Z}, "angular key 'seed'"),
    "include-constant-term-int": ("mixed-norm", {
        "mixedSpec": {**_MIXED, "includeConstantTerm": 0}, "function": _ONE_MINUS_Z},
        "MixedSpec key 'includeConstantTerm'"),
    "space-max-degree-float": (*_index(space={"kind": "drury_arveson", "d": 1,
                                              "maxDegree": 8.5}),
                               "space key 'maxDegree'"),
    "weight-exponent-float": (*_index(space={"kind": "custom_diagonal", "d": 1, "maxDegree": 3,
                                             "weights": [{"exponents": [k], "value": 1}
                                                         for k in (0, 1, 2, 3.0)]}),
                              "weight key 'exponents'"),
    "term-exponent-float": (*_index(function=[{"exponents": [0], "re": 1},
                                              {"exponents": [1.5], "re": -1}]),
                            "term key 'exponents'"),
    "term-letter-bool": ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2},
                                        "function": [{"letters": [True], "re": 1}], "n": 1},
                         "term key 'letters'"),
    "term-re-string": (*_index(function=[{"exponents": [0], "re": "1"}]), "term key 're'"),
    # values that a builtin or numpy would reject with a message naming no key:
    # tuple(3), float("a"), an unhashable selector, int("x"), default_rng(-1)
    "space-moments-number": (*_index(space={"kind": "diagonal_besov", "d": 1, "moments": 3}),
                             "space key 'moments'"),
    "space-moments-string": (*_index(space={"kind": "diagonal_besov", "d": 1,
                                            "moments": ["a"]}),
                             "space key 'moments'"),
    "custom-weights-number": (*_index(space={"kind": "custom_diagonal", "d": 1, "weights": 3}),
                              "space key 'weights'"),
    "space-kind-array": (*_index(space={"kind": [], "d": 1}),
                         "space must be an object with a kind"),
    "space-preset-array": (*_index(space={"preset": [], "d": 1}), "preset space key 'preset'"),
    "space-string-degree": (*_index(space="hardy(x)"), "space string 'hardy(x)'"),
    "corona-mode-array": ("corona-check", {**_FREE_CORONA, "mode": []},
                          "config must be an object with a mode"),
    "free-corona-seed-negative": ("corona-check", {**_FREE_CORONA, "seed": -1},
                                  "config key 'seed'"),
    "points-cloud-number": ("capacity", {"cloud": {"kind": "points", "d": 1, "points": 3},
                                         "alpha": 0}, "cloud key 'points'"),
    "points-cloud-d-negative": ("capacity", {"cloud": {"kind": "points", "d": -1, "points": []},
                                             "alpha": 0}, "a points cloud needs d >= 1, not -1"),
    "points-cloud-d-huge": ("capacity", {"cloud": {"kind": "points", "d": 10**47, "points": []},
                                         "alpha": 0}, "a points cloud needs d <= 16777216"),
    "points-cloud-d-zero": ("dimension", {"cloud": {"kind": "points", "d": 0, "points": [[]]}},
                            "a points cloud needs d >= 1, not 0"),
    "points-cloud-strings": ("capacity", {"cloud": {"kind": "points", "d": 1,
                                                    "points": [["a", "b"]]}, "alpha": 0},
                             "cloud key 'points'"),
    "radial-nodes-string": ("mixed-norm", {"mixedSpec": {**_MIXED, "radial": {
        "nodes": ["a"], "weights": [1]}}, "function": _ONE_MINUS_Z}, "radial key 'nodes'"),
    "angular-seed-negative": ("mixed-norm", {"mixedSpec": {**_MIXED, "d": 2, "angular": {
        "count": 16, "seed": -1}}, "function": [{"exponents": [0, 0], "re": 1}]},
        "angular seed"),
    "arc-capacity-seed-negative": ("capacity", {"cloud": _ARC, "alpha": 0, "seed": -5},
                                   "config key 'seed'"),
    "arc-dimension-seed-negative": ("dimension", {"cloud": _ARC, "seed": -5},
                                    "config key 'seed'"),
    "report-capacity-threshold-negative": ("report", {"space": "hardy(1)",
                                                      "function": _ONE_MINUS_Z, "nMax": 2,
                                                      "alpha": 0, "capacityThreshold": -1},
                                           "capacity threshold must be >= 0"),
    "weight-perturb-seed-negative": ("perturb", {"variant": "weight", "space": "hardy(1)",
                                                 "function": _ONE_MINUS_Z, "n": 2,
                                                 "epsilon": 0.05, "seed": -1},
                                     "config key 'seed'"),
    # weight tables that overflow a double
    "free-besov-s-overflow": ("free-index", {"freeSpace": {"kind": "free_besov", "d": 2,
                                                           "s": 1e6},
                                             "function": [{"letters": [], "re": 1}], "n": 1},
                              "smoothness s = 1000000.0"),
    "besov-N-overflow": (*_index(space={"kind": "diagonal_besov", "d": 1, "N": 400,
                                        "maxDegree": 60, "moments": [1] * 121}),
                         "derivative order N = 400"),
    # number literals that no finite float holds: 1e400 reads as inf, a
    # 400-digit integer overflows float(), and past 4,300 digits Python's
    # int parser refuses the literal inside json.loads
    "sweep-tol-1e400": ("sweep", {"space": "hardy(1)", "function": _ONE_MINUS_Z, "nMax": 3,
                                  "tol": "raw:1e400"}, "config key 'tol'"),
    "capacity-alpha-1e400": ("capacity", {"cloud": _ARC, "alpha": "raw:1e400"},
                             "config key 'alpha'"),
    "report-eps-nbhd-1e400": ("report", {"space": "hardy(1)", "function": _ONE_MINUS_Z,
                                         "nMax": 2, "alpha": 0, "epsNbhd": "raw:1e400"},
                              "config key 'epsNbhd'"),
    "capacity-alpha-400-digits": ("capacity", {"cloud": _ARC, "alpha": 10**400},
                                  "config key 'alpha'"),
    "coeffs1d-400-digits": (*_index(function={"coeffs1d": [1, 10**400]}), "coeffs1d entry"),
    "term-re-400-digits": (*_index(function=[{"exponents": [0], "re": 10**400}]),
                           "term key 're'"),
    "n-5000-digits": (*_index(n="raw:" + "9" * 5000), "cannot read config"),
    # integers too large for their use, each refused where it is used: a
    # generated cloud's count, a free space's words, a space's variables and
    # radial moments
    "arc-count-400-digits": ("capacity", {"cloud": {**_ARC, "count": 10**400}, "alpha": 0},
                             "count must lie in 1..16777216"),
    "circle-count-2-to-40": ("dimension", {"cloud": {"kind": "circle", "count": 2**40}},
                             "count must lie in 1..16777216"),
    "free-space-d-400-digits": ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 10**400},
                                               "function": [{"letters": [], "re": 1}], "n": 1},
                                "and maxLength = 12 give 2^63 words or more"),
    "free-space-max-length-63": ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2,
                                                              "maxLength": 63},
                                                "function": [{"letters": [], "re": 1}], "n": 1},
                                 "d = 2 and maxLength = 63 give 2^63 words"),
    "preset-d-400-digits": (*_index(space={"preset": "hardy", "d": 10**400}),
                            "and maxDegree = 20 give more than 4194304 exponents of degree "
                            "<= 1 or radial moments"),
    "space-string-400-digits": (*_index(space="hardy(" + "9" * 400 + ")"),
                                "and maxDegree = 20 give more than 4194304 exponents of "
                                "degree <= 1 or radial moments"),
    # 2^23 - 1 radial moments and d (d + 1) exponents of degree <= 1, both
    # refused before anything is built
    "preset-d-and-max-degree-2-to-22": (*_index(space={"preset": "hardy", "d": 2**22 - 1,
                                                       "maxDegree": 2**22 - 1}),
                                        "d = 4194303 and maxDegree = 4194303 give more"),
    # a quadrature spec's grid, derivative order and IRLS budget, and the
    # sampled tuples of a free corona check
    "mixed-spec-d-400-digits": ("mixed-norm", {"mixedSpec": {**_MIXED, "d": 10**400},
                                               "function": _ONE_MINUS_Z},
                                "d = 1000000000000000000000000000000000000..., radial count"),
    "var-exp-spec-d-400-digits": ("varexp-norm", {"varExpSpec": {**_VAREXP, "d": 10**400},
                                                  "function": _ONE_MINUS_Z},
                                  "d = 1000000000000000000000000000000000000..., radial count"),
    "mixed-norm-spec-N-overflow": ("mixed-norm", {"mixedSpec": {**_MIXED, "N": 1000},
                                                  "function": {"coeffs1d": [1, 0, 0, 1]}},
                                   "derivative order N = 1000 overflows the factor |alpha|^N "
                                   "at degree 3"),
    "varexp-norm-spec-N-overflow": ("varexp-norm", {"varExpSpec": {**_VAREXP, "N": 1000},
                                                    "function": {"coeffs1d": [1, 0, 0, 1]}},
                                    "derivative order N = 1000 overflows the factor |alpha|^N "
                                    "at degree 3"),
    "mixed-index-spec-N-400-digits": ("mixed-index", {"mixedSpec": {**_MIXED, "N": 10**400},
                                                      "function": _ONE_MINUS_Z, "n": 1},
                                      "derivative order N must lie in 0..1023"),
    "radial-count-400-digits": ("mixed-norm", {"mixedSpec": {**_MIXED, "radial": {
        "measure": "area", "count": 10**400}}, "function": _ONE_MINUS_Z},
        "radial count must lie in 2..1024"),
    "angular-count-400-digits": ("mixed-norm", {"mixedSpec": {**_MIXED, "angular": {
        "count": 10**400}}, "function": _ONE_MINUS_Z},
        "angular count = 1000000000000000000000000000000000000... give more than 16777216"),
    "corona-size-400-digits": ("corona-check", {**_FREE_CORONA, "size": 10**400},
                               "size = 1000000000000000000000000000000000000... give more"),
    "corona-samples-400-digits": ("corona-check", {**_FREE_CORONA, "samples": 10**400},
                                  "samples must lie in 1..65536"),
    "commutative-corona-l-max-400-digits": ("corona-check", {
        "mode": "commutative", "space": "hardy(1)", "function": {"coeffs1d": [2, -1]},
        "lMax": 10**400}, "l_max must lie in 0..64"),
    "mixed-index-n-max-400-digits": ("mixed-index", {"mixedSpec": _MIXED,
                                                     "function": _ONE_MINUS_Z, "nMax": 10**400},
                                     "nMax must lie in 0..8191"),
    "mixed-index-n-400-digits": ("mixed-index", {"mixedSpec": _MIXED, "function": _ONE_MINUS_Z,
                                                 "n": 10**400}, "n must lie in 0..8191"),
}

# a nested object without a required key names the object and the key
MISSING = {
    "mixed-spec-radial": ("mixed-norm", {"mixedSpec": {"d": 1, "p": 2, "q": 2},
                                         "function": _ONE_MINUS_Z},
                          "MixedSpec is missing required key(s) ['radial']"),
    "free-space-d": ("free-index", {"freeSpace": {"kind": "free_hardy"},
                                    "function": [{"letters": [], "re": 1}], "n": 1},
                     "free space is missing required key(s) ['d']"),
    "space-moments": (_index(space={"kind": "diagonal_besov", "d": 1})
                      + ("space is missing required key(s) ['moments']",)),
    "term-letters": ("free-index", {"freeSpace": {"kind": "free_hardy", "d": 2},
                                    "function": [{"re": 1}], "n": 1},
                     "term is missing required key 'letters'"),
    "first-term-exponents": ("capacity", {"cloud": {"kind": "zero_set", "function": [{"re": 1}]},
                                          "alpha": 0},
                             "term is missing required key 'exponents'"),
}

# pairs of keys of which a config gives exactly one
BOTH_OF_A_PAIR = {
    "perturbed-and-delta": ("perturb", {"space": "hardy(1)", "function": _ONE_MINUS_Z, "n": 2,
                                        "perturbed": {"coeffs1d": [1, -0.9]},
                                        "delta": {"coeffs1d": [0, 0.1]}}),
    "mixed-spec-and-var-exp-spec": ("mixed-index", {"mixedSpec": _MIXED, "varExpSpec": _VAREXP,
                                                    "function": _ONE_MINUS_Z, "n": 1}),
    "n-max-and-n": ("mixed-index", {"mixedSpec": _MIXED, "function": _ONE_MINUS_Z,
                                    "nMax": 2, "n": 1}),
}


def readme_key_tables():
    """{(object, selector or None): [(key, required)]} from the README's
    "Config keys" section, one entry per command, mode and cloud kind."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in section.split("\n#### ")[1:]:
        heading, *lines = block.splitlines()
        name = re.fullmatch(r'`([a-z-]+)`(?: with `"\w+": "(\w+)"`)?', heading).groups()
        rows = [re.fullmatch(r"\| `(\w+)` \|.*\| ([^|]+) \|", line) for line in lines]
        tables[name] = [(row[1], row[2].strip()) for row in rows if row]
    return tables


# a valid value for every documented key; OVERRIDES holds those that differ per object
DOCUMENTED_VALUES = {
    "space": "hardy(1)", "function": _ONE_MINUS_Z, "n": 2, "target": {"coeffs1d": [1]},
    "nMax": 2, "tol": 0.01, "freeSpace": {"kind": "free_hardy", "d": 2, "maxLength": 6},
    "d": 2, "maxLength": 6, "lMax": 2, "nIn": 4, "rho": 0.5, "seed": 1, "samples": 2,
    "size": 3, "exportTuples": True, "cloud": _ARC, "alpha": 0.0, "maxIter": 100, "jMin": 2,
    "jMax": 5, "perturbed": {"coeffs1d": [1, -0.9]}, "delta": {"coeffs1d": [0, 0.1]},
    "epsilon": 0.05, "mixedSpec": _MIXED, "varExpSpec": _VAREXP, "capacityThreshold": 0.01,
    "resolution": 64, "zeroTol": 1e-8, "epsNbhd": 0.05, "angle": 1.0, "count": 16,
    "polarAngle": 0.5, "points": [[1.0, 0.0]],
}
_FREE_G = [{"letters": [], "re": 1}, {"letters": [1], "re": -0.5}]
OVERRIDES = {
    ("free-index", "function"): _FREE_G, ("free-index", "target"): [{"letters": [], "re": 1}],
    ("compress-check", "function"): _FREE_G, ("cloud", "d"): 1,
}


def documented_configs():
    """(command, config) pairs that together set every documented key, one
    per member of each exclusive pair; a cloud runs through `capacity`."""
    for (name, selector), rows in readme_key_tables().items():
        pairs = {}
        for key, required in rows:
            pairs.setdefault(required if required.startswith("one of") else key, []).append(key)
        for i in range(max(map(len, pairs.values()))):
            config = {}
            for group in pairs.values():
                key = group[min(i, len(group) - 1)]
                if key in ("mode", "variant", "kind"):
                    config[key] = selector
                else:
                    config[key] = OVERRIDES.get((name, key), DOCUMENTED_VALUES[key])
            label = name if selector is None else f"{name}-{selector}"
            if name == "cloud":
                yield label, ("capacity", {"cloud": config, "alpha": 0, "seed": 1})
            else:
                yield f"{label}-{i}", (name, config)


DOCUMENTED = dict(documented_configs())


class TestConfigKeys:
    @pytest.mark.parametrize("command, config, named", MISREAD.values(), ids=MISREAD.keys())
    def test_misread_config_exits_two(self, tmp_path, capsys, command, config, named):
        rc, path = run_cli(tmp_path, command, config)
        assert rc == 2
        assert not path.parent.exists()
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and named in err

    def test_preset_max_degree_beyond_the_weight_table_exits_two(self, tmp_path):
        # building the radial moments up to a 400-digit degree would run
        # until killed, so this one runs in its own process under a timeout
        # and a 2 GB address-space limit
        config = {"space": {"preset": "hardy", "d": 1, "maxDegree": 10**400},
                  "function": _ONE_MINUS_Z, "n": 2}
        cfg = tmp_path / "index.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclicity", "index", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("invalid config: d = 1 and maxDegree = 1000")
        assert "more than 4194304 exponents of degree <= 1 or radial moments" in proc.stderr

    def test_reached_weight_that_rounds_to_zero_exits_two(self, tmp_path, capsys):
        # the weight 1/C(1120, 560) of z1^560 z2^560 is below the least
        # subnormal; the index refuses it rather than solve with a zero row
        config = {"space": {"kind": "drury_arveson", "d": 2, "maxDegree": 1200},
                  "function": [{"exponents": [0, 0], "re": 1},
                               {"exponents": [560, 560], "re": -1}], "n": 0}
        rc, path = run_cli(tmp_path, "index", config)
        assert rc == 2
        assert not path.exists()
        assert "the weight of z^(560, 560) rounds to 0" in capsys.readouterr().err

    def test_preset_with_2_to_22_variables_exits_two(self, tmp_path):
        # the 1 + d monomials of degree <= 1 are 2^22, within a design's
        # count, but they hold d (d + 1) exponents, so the space refuses d;
        # reading the 2^22-entry exponent arrays takes seconds, so this runs
        # in its own process under a timeout and a 2 GB limit
        d = 2**22 - 1
        one = [1] + [0] * (d - 1)
        config = {"space": {"preset": "hardy", "d": d}, "n": 0,
                  "function": [{"exponents": [0] * d, "re": 1}, {"exponents": one, "re": -1}]}
        cfg = tmp_path / "index.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclicity", "index", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"invalid config: d = {d} and maxDegree = 20 give more "
                                      "than 4194304 exponents of degree <= 1 or radial moments")

    @pytest.mark.parametrize("command, config, named", [
        ("capacity", {"cloud": _ARC, "alpha": 10**400}, "config key 'alpha' must be"),
        ("capacity", {"cloud": {"kind": "points", "d": 1,
                                "points": [[1.0, 0.0]] * 2000 + [[1.0, "x"]]}, "alpha": 0},
         "cloud key 'points'[2000][1] must be float, not 'x'"),
        ("index", {"space": "hardy(1)", "function": {"coeffs1d": [1] * 300 + [[1, 10**400]]},
                   "n": 2}, "coeffs1d entry 300[1] must be a finite float"),
        ("index", {"space": "hardy(1)", "function": [{"exponents": [0, 1.5] * 500, "re": 1}],
                   "n": 2}, "term key 'exponents'[1] must be int, not 1.5"),
        ("index", {"space": {"preset": "h" * 5000, "d": 1}, "function": _ONE_MINUS_Z, "n": 2},
         "unknown preset 'hhh"),
        ("index", {"space": "hardy(1)", "function": _ONE_MINUS_Z, "n": 2, "x" * 5000: 1},
         "unknown config key(s) ['xxx"),
        ("dimension", {"cloud": _ARC, "jMax": 10**400}, "need 1 <= j_min < j_max <= 62"),
    ], ids=["400-digit-float", "points-entry", "coeffs1d-pair-entry", "exponents-entry",
            "long-preset", "long-key", "400-digit-j-max"])
    def test_refused_value_is_echoed_briefly(self, tmp_path, capsys, command, config, named):
        # a refused value is named by its index and cut to poly.SHOWN_CHARS
        rc, path = run_cli(tmp_path, command, config)
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err
        assert len(err) <= 200

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "index.config.json"
        cfg.write_bytes(b'{"space": "hardy(1)", "function": {"coeffs1d": [1]}, "n": "\xff"}')
        assert main(["index", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.startswith("invalid config: cannot read config: ")

    @pytest.mark.parametrize("command, config, message", MISSING.values(), ids=MISSING.keys())
    def test_missing_nested_key_is_named(self, tmp_path, capsys, command, config, message):
        rc, path = run_cli(tmp_path, command, config)
        assert rc == 2
        assert not path.parent.exists()
        assert capsys.readouterr().err == f"invalid config: {message}\n"

    @pytest.mark.parametrize("command, config", BOTH_OF_A_PAIR.values(),
                             ids=BOTH_OF_A_PAIR.keys())
    def test_both_keys_of_an_exclusive_pair_exit_two(self, tmp_path, command, config):
        rc, path = run_cli(tmp_path, command, config)
        assert rc == 2
        assert not path.parent.exists()

    def test_readme_documents_every_command_and_mode(self):
        tables = readme_key_tables()
        assert {name for name, _ in tables} == set(cli_mod.COMMANDS) | {"cloud"}
        assert {s for name, s in tables if name in ("corona-check", "perturb")} == {
            "commutative", "free", "function", "weight"}
        assert {s for name, s in tables if name == "cloud"} == {
            "arc", "circle", "sphere_cap", "points", "zero_set"}

    @pytest.mark.parametrize("command, config", DOCUMENTED.values(), ids=DOCUMENTED.keys())
    def test_every_documented_key_is_accepted(self, tmp_path, command, config):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc, path = run_cli(tmp_path, command, config)
        assert rc == 0
        assert json.loads(path.read_text())["config"] == config


class TestCommandPaths:
    """Config forms and command modes beyond the acceptance configs."""

    @staticmethod
    def result(tmp_path, command, config, out="out"):
        rc, path = run_cli(tmp_path, command, config, out)
        assert rc == 0
        return json.loads(path.read_text())["result"]

    def test_commutative_corona_default_section_fits_any_d(self, tmp_path):
        # psi = 2 - z1 on hardy(2), whose tables stop at degree 20: the
        # default section degree is 20 - lMax = 10
        psi = [{"exponents": [0, 0], "re": 2.0}, {"exponents": [1, 0], "re": -1.0}]
        config = {"mode": "commutative", "space": "hardy(2)", "function": psi}
        out = self.result(tmp_path, "corona-check", config)
        assert out["nIn"] == 10
        assert out["lengths"] == list(range(11))
        # the (0, 0) entry of every section is |q(0)| = 1/2
        assert all(b >= 0.5 for b in out["multiplierLowerBounds"])
        for lo, hi in zip(out["multiplierLowerBounds"], out["multiplierLowerBounds"][1:]):
            assert hi >= lo - 1e-12

    def test_commutative_corona_default_section_at_d1(self, tmp_path):
        config = {"mode": "commutative", "space": "hardy(1)",
                  "function": {"coeffs1d": [2, -1]}, "lMax": 4}
        out = self.result(tmp_path, "corona-check", config)
        assert out["nIn"] == 40
        # truncations of 1/(2 - z) stay below sup |1/(2 - z)| = 1 on the circle
        assert all(0.5 <= b <= 1.0 + 1e-12 for b in out["multiplierLowerBounds"])

    def test_free_corona_exports_the_first_draw(self, tmp_path):
        config = {"mode": "free", "d": 2, "rho": 0.7, "samples": 3, "size": 4, "seed": 13,
                  "lMax": 4, "exportTuples": True}
        out = self.result(tmp_path, "corona-check", config)
        mats = freespace.tuple_from_json(out["firstTuple"])
        assert len(mats) == 2 and mats[0].shape == (4, 4)
        psi = 2.0 * freespace.FreePolynomial.identity(2) - freespace.FreePolynomial.letter(1, 2)
        floor = np.linalg.svd(freespace.evaluate_on_tuple(psi, mats), compute_uv=False)[-1]
        assert floor == pytest.approx(out["minSingularValues"][0], rel=1e-12)
        assert np.linalg.norm(np.hstack(mats), 2) == pytest.approx(0.7, rel=1e-12)

    def test_function_perturbation_forms_agree(self, tmp_path):
        base = {"variant": "function", "space": "hardy(1)",
                "function": {"coeffs1d": [1, -1]}, "n": 6}
        given = self.result(tmp_path, "perturb",
                            {**base, "perturbed": {"coeffs1d": [1, -0.75]}}, out="given")
        shifted = self.result(tmp_path, "perturb",
                              {**base, "delta": {"coeffs1d": [0, 0.25]}}, out="delta")
        assert given == shifted
        assert given["variant"] == "function"
        assert given["delta"] == pytest.approx(0.25)
        assert given["lhs"] <= given["rhs"]
        assert given["holds"]

    def test_index_against_a_target(self, tmp_path):
        # multiples of f = 1 of degree <= 2 leave the z^3 term of 1 + 2 z^3
        config = {"space": "hardy(1)", "function": {"coeffs1d": [1]}, "n": 2,
                  "target": {"coeffs1d": [1, 0, 0, 2]}}
        out = self.result(tmp_path, "index", config)
        assert out["residual"] == pytest.approx(2.0, rel=1e-12)
        assert out["phi"] == [{"exponents": [0], "re": 1.0, "im": 0.0}]

    def test_free_index_against_a_target(self, tmp_path):
        # words of length <= 1 leave the Z1 Z2 term of 1 + 3 Z1 Z2
        config = {"freeSpace": {"kind": "free_hardy", "d": 2, "maxLength": 4},
                  "function": [{"letters": [], "re": 1}], "n": 1,
                  "target": [{"letters": [], "re": 1}, {"letters": [1, 2], "re": 3}]}
        out = self.result(tmp_path, "free-index", config)
        assert out["residual"] == pytest.approx(3.0, rel=1e-12)
        assert out["phi"] == [{"letters": [], "re": 1.0, "im": 0.0}]

    def test_circle_cloud_capacity(self, tmp_path):
        # 16 equispaced points: the log energy with the half-spacing self
        # term is -log(16 sin(pi/16)) / 16
        out = self.result(tmp_path, "capacity",
                          {"cloud": {"kind": "circle", "count": 16}, "alpha": 0})
        assert out["cloudSize"] == 16
        assert out["capacity"] == pytest.approx((16 * math.sin(math.pi / 16)) ** (1 / 16),
                                                rel=1e-12)
        assert out["weights"] == pytest.approx([1 / 16] * 16, rel=1e-12)

    def test_large_arc_and_circle_capacity(self, tmp_path):
        # past NUMPY_MAX_FACE points arcs and circles are solved by FFT in
        # O(n) memory; the packed route would hold 8 n^2 bytes, 550 GB for
        # the arc
        clouds = {"circle": {"kind": "circle", "count": 1 << 16},
                  "arc": {"kind": "arc", "angle": math.pi / 2, "count": 1 << 18}}
        for name, cloud in clouds.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"cloud": cloud, "alpha": 0}))
            proc = subprocess.run(
                [sys.executable, "-m", "cyclicity", "capacity", "--config", str(cfg),
                 "--out", str(tmp_path / name)],
                capture_output=True, text=True, env=subprocess_env(), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            out = json.loads((tmp_path / name / "capacity.json").read_text())["result"]
            assert out["converged"] is True and out["cloudSize"] == cloud["count"]
        n = clouds["circle"]["count"]
        circle = json.loads((tmp_path / "circle" / "capacity.json").read_text())["result"]
        assert abs(circle["capacity"] - (n * math.sin(math.pi / n)) ** (1 / n)) <= 1e-12

    def test_points_cloud_capacity(self, tmp_path):
        # an equilateral triangle on the circle: sides sqrt(3), self scale sqrt(3)/2
        pts = [[math.cos(t), math.sin(t)] for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
        out = self.result(tmp_path, "capacity",
                          {"cloud": {"kind": "points", "d": 1, "points": pts}, "alpha": 0})
        energy = -(6 * math.log(math.sqrt(3)) + 3 * math.log(math.sqrt(3) / 2)) / 9
        assert out["cloudSize"] == 3
        assert out["capacity"] == pytest.approx(math.exp(-energy), rel=1e-12)

    def test_variable_exponent_mixed_index(self, tmp_path):
        spec = {"d": 1, "N": 0, "exponent": {"a": 2, "b": 1, "c": 2},
                "radial": {"measure": "area", "count": 12}, "angular": {"count": 64}}
        config = {"varExpSpec": spec, "function": {"coeffs1d": [1, -1]}, "nMax": 2}
        out = self.result(tmp_path, "mixed-index", config)
        expected = [mixednorm.mixed_index(mixednorm.VarExpSpec.from_json(spec),
                                          Polynomial.from_coeffs1d([1, -1]), n)
                    for n in range(3)]
        assert [r["n"] for r in out["results"]] == [0, 1, 2]
        assert [r["value"] for r in out["results"]] == [r.value for r in expected]
        assert out["spec"] == mixednorm.VarExpSpec.from_json(spec).to_json()

    def test_mixed_index_single_budget(self, tmp_path):
        spec = {"d": 1, "N": 0, "p": 3, "q": 2, "radial": {"measure": "point_mass"},
                "angular": {"count": 64}}
        config = {"mixedSpec": spec, "function": {"coeffs1d": [1, -1]}, "n": 3}
        rc, path = run_cli(tmp_path, "mixed-index", config)
        assert rc == 0
        results = json.loads(path.read_text())["result"]["results"]
        assert [r["n"] for r in results] == [3]
        assert path.with_suffix(".csv").read_text().splitlines()[1].startswith("3,")


class TestDeterminism:
    def test_small_solves_load_no_scipy(self, tmp_path):
        # on the acceptance configs every design has at most
        # solver.DENSE_MAX_COLUMNS columns and every equilibrium cloud at most
        # capacity.NUMPY_MAX_FACE points, which numpy solves alone, and no
        # sphere sample is drawn at d >= 2
        commands = tuple(CLI_CONFIGS)
        assert len(commands) == 12
        args = [str(tmp_path / "out")]
        for command in commands:
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(CLI_CONFIGS[command]))
            args += [command, str(cfg)]
        script = (
            "import json, sys\n"
            "from cyclicity.cli import main\n"
            "out, loaded = sys.argv[1], {}\n"
            "for command, cfg in zip(sys.argv[2::2], sys.argv[3::2]):\n"
            "    assert main([command, '--config', cfg, '--out', out]) == 0\n"
            "    loaded[command] = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(json.dumps(loaded))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {command: [] for command in commands}

    @pytest.mark.parametrize("command, expected", [
        ("index", []), ("sweep", ["csv"]), ("free-index", ["cyclicity.freespace"]),
        ("compress-check", ["cyclicity.freespace"]), ("corona-check", ["cyclicity.freespace"]),
        ("capacity", ["cyclicity.capacity"]), ("dimension", ["cyclicity.capacity"]),
        ("perturb", []), ("mixed-norm", ["cyclicity.mixednorm"]),
        ("varexp-norm", ["cyclicity.mixednorm"]),
        ("mixed-index", ["csv", "cyclicity.mixednorm"]),
        ("report", ["csv", "cyclicity.capacity"]),
    ])
    def test_command_loads_only_its_modules(self, tmp_path, command, expected):
        # a fresh `python -m cyclicity <command>`: of the modules that only some
        # commands need, it loads its own; none of the acceptance runs warns,
        # so none loads logging
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CLI_CONFIGS[command]))
        script = (
            "import json, runpy, sys\n"
            "lazy = ('cyclicity.capacity', 'cyclicity.freespace', 'cyclicity.mixednorm',\n"
            "        'logging', 'csv')\n"
            "sys.argv = ['cyclicity', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('cyclicity', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(json.dumps(sorted(m for m in lazy if m in sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout.splitlines()[-1]) == expected

    def test_warning_from_a_fresh_process(self, tmp_path):
        # logging loads only with the first warning and still writes it to
        # stderr as `WARNING <message>`; a run that does not warn writes nothing there
        empty = {"cloud": {"kind": "zero_set", "function": {"coeffs1d": [2, -1]}}, "alpha": 0}
        quiet = {"cloud": {"kind": "circle", "count": 8}, "alpha": 0}
        stderr = {}
        for name, config in (("empty", empty), ("quiet", quiet)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            proc = subprocess.run(
                [sys.executable, "-m", "cyclicity", "capacity", "--config", str(cfg),
                 "--out", str(tmp_path / name)],
                capture_output=True, text=True, env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            stderr[name] = proc.stderr
        assert stderr["empty"] == (
            "WARNING capacity requested on an empty cloud; returning 0 by convention\n")
        assert stderr["quiet"] == ""

    def test_bare_import_is_lazy(self):
        script = (
            "import json, sys\n"
            "import cyclicity\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('cyclicity.') or m.split('.')[0] == 'numpy')\n"
            "names = sorted(cyclicity.__all__)\n"
            "capacity = cyclicity.capacity\n"
            "homes = {n: getattr(cyclicity, n).__module__ for n in names}\n"
            "same = [getattr(cyclicity, n) is getattr(sys.modules[homes[n]], n) for n in names]\n"
            "star = {}\n"
            "exec('from cyclicity import *', star)\n"
            "try:\n"
            "    cyclicity.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError:\n"
            "    unknown = 'AttributeError'\n"
            "print(json.dumps({'loaded': loaded, 'names': names, 'capacity': capacity.__name__,\n"
            "                  'same': all(same), 'star': sorted(set(names) - star.keys()),\n"
            "                  'unknown': unknown, 'version': cyclicity.__version__}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["loaded"] == []
        assert set(out["names"]) >= PACKAGE_EXPORTS
        assert out["capacity"] == "cyclicity.capacity"
        assert out["same"] and out["star"] == [] and out["unknown"] == "AttributeError"
        assert out["version"] == "0.1.0"

    def test_wide_dense_sweep_loads_no_scipy(self, tmp_path):
        # K = nMax + 1 columns: past the single-solve limit of 64 columns, but
        # the sweep's K widths share one dense factor up to K = 512, so the
        # design is built as an ndarray
        for n_max in (120, 511):
            config = {"space": {"preset": "dirichlet_type", "d": 1, "maxDegree": n_max + 10},
                      "function": {"coeffs1d": [1, -1]}, "nMax": n_max}
            cfg = tmp_path / f"sweep-{n_max}.json"
            cfg.write_text(json.dumps(config))
            script = (
                "import sys\n"
                "from cyclicity.cli import main\n"
                "assert main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            )
            out = tmp_path / f"out-{n_max}"
            proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(out)],
                                  capture_output=True, text=True, env=subprocess_env())
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]"
            result = json.loads((out / "sweep.json").read_text())["result"]
            assert result["solveMethods"] == ["cholesky"] * (n_max + 1)

    def test_subprocess_runs_are_byte_identical(self, tmp_path):
        config = {
            "space": "hardy(1)",
            "function": {"coeffs1d": [1, -1]},
            "nMax": 6,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outputs = []
        for name in ("a", "b"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cyclicity",
                    "sweep",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path / name),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0
            outputs.append((tmp_path / name / "sweep.json").read_bytes())
        assert outputs[0] == outputs[1]


def _one_minus_z():
    return Polynomial.from_coeffs1d([1.0, -1.0])


def _free_affine():
    return freespace.FreePolynomial(2, {(): 1.0, (1,): -0.5, (2,): -0.5})


# one small real instance of every result class that `to_json` writes
RESULTS = {
    "approximant-infinite-condition": lambda: indices.subspace_distance(
        hardy(1), Polynomial.one(1), Polynomial.from_coeffs1d([1e308, 1e308]), 2
    ),
    "approximant-free": lambda: freespace.free_subspace_distance(
        freespace.free_hardy(2, 6), freespace.FreePolynomial.identity(2), _free_affine(), 3
    ),
    "sweep": lambda: indices.index_sweep(dirichlet_type(1), _one_minus_z(), 8),
    "perturbation": lambda: indices.check_perturbation_bound(
        hardy(1), _one_minus_z(), 1.01 * _one_minus_z(), 4
    ),
    "weight-stability": lambda: indices.check_weight_stability(
        hardy(1), indices.perturb_weights(hardy(1), 0.05, 1), _one_minus_z(), 4
    ),
    "equilibrium": lambda: capacity.riesz_equilibrium(capacity.arc_cloud(math.pi / 2, 16), 0.0),
    "equilibrium-singleton": lambda: capacity.riesz_equilibrium(
        capacity.BoundaryCloud(np.ones((1, 1))), 1.0
    ),
    "dimension": lambda: capacity.box_dimension(capacity.arc_cloud(math.pi, 256)),
    "obstruction": lambda: capacity.obstruction_report(
        hardy(1), Polynomial.from_coeffs1d([0.0, 1.0]), n_max=6, alpha=0.0, seed=1
    ),
    "compression": lambda: freespace.compression_check(
        freespace.free_hardy(2, 8), drury_arveson(2, 8), _free_affine(), 3
    ),
    "row-contraction": lambda: freespace.row_contraction_inversion_report(
        d=2, rho=0.5, samples=2, size=3, seed=1, l_max=4
    ),
    "mixed-index": lambda: mixednorm.mixed_index(
        mixednorm.MixedSpec.with_measure("point_mass", 1, 0, 3.0, 2.0, angular_count=64),
        _one_minus_z(), 2,
    ),
}


def _mixed(p, q, nodes=(1.0,), weights=(1.0,)):
    return mixednorm.MixedSpec(1, 0, p, q, list(nodes), list(weights))


def _varexp(a, b, c, **kwargs):
    return mixednorm.VarExpSpec.with_measure("area", 1, 0, a, b, c, **kwargs)


# a NaN, or a non-finite radial rule, that a library entry point refuses as
# the CLI's finite-float reading does; a comparison that NaN fails is the check
NON_FINITE = {
    "sweep-tol": lambda: indices.index_sweep(dirichlet_type(1), _one_minus_z(), 4,
                                             tol=math.nan),
    "obstruction-threshold": lambda: capacity.obstruction_report(
        hardy(1), _one_minus_z(), n_max=4, alpha=0.0, capacity_threshold=math.nan),
    "weight-stability-epsilon": lambda: indices.check_weight_stability(
        hardy(1), hardy(1), _one_minus_z(), 4, epsilon=math.nan),
    "mixed-p": lambda: _mixed(math.nan, 2.0),
    "mixed-q": lambda: _mixed(2.0, math.nan),
    "varexp-a": lambda: _varexp(math.nan, 0.0, 1.0),
    "varexp-b": lambda: _varexp(2.0, math.nan, 1.0),
    "varexp-c": lambda: _varexp(2.0, 0.0, math.nan),
    "varexp-bisection-tol": lambda: _varexp(2.0, 0.0, 1.0, bisection_tol=math.nan),
    "radial-node-nan": lambda: _mixed(2.0, 2.0, nodes=[math.nan]),
    "radial-node-inf": lambda: _mixed(2.0, 2.0, nodes=[math.inf]),
    "radial-weight-nan": lambda: _mixed(2.0, 2.0, weights=[math.nan]),
    "radial-weight-inf": lambda: _mixed(2.0, 2.0, weights=[math.inf]),
}


# out-of-range or malformed input that a library entry point refuses with an
# `ArgumentError` subclass, which the CLI reports with exit 2
REFUSED = {
    "cloud-not-2d": lambda: capacity.BoundaryCloud(np.ones(3)),
    "cloud-off-sphere": lambda: capacity.BoundaryCloud(np.full((1, 1), 0.5)),
    "arc-angle-0": lambda: capacity.arc_cloud(0.0, 16),
    "arc-angle-past-2pi": lambda: capacity.arc_cloud(7.0, 16),
    "cap-polar-angle-0": lambda: capacity.sphere_cap_cloud(16, 0.0),
    "cap-polar-angle-past-pi": lambda: capacity.sphere_cap_cloud(16, 4.0),
    "equilibrium-max-iter-0": lambda: capacity.riesz_equilibrium(
        capacity.arc_cloud(1.0, 16), 0.0, max_iter=0),
    # 2 - z has no boundary zero, so the neighborhood is of an empty cloud
    "report-eps-nbhd-negative-without-zeros": lambda: capacity.obstruction_report(
        hardy(1), Polynomial.from_coeffs1d([2.0, -1.0]), n_max=2, alpha=0.0, eps_nbhd=-1.0),
    "union-of-clouds-of-different-d": lambda: capacity.circle_cloud(4).union(
        capacity.sphere_cap_cloud(4, 1.0)),
    "free-kind": lambda: freespace.FreeSpaceSpec("free_bergman", 2, 4),
    "free-d-0": lambda: freespace.FreeSpaceSpec("free_hardy", 0, 4),
    "free-max-length-negative": lambda: freespace.free_hardy(2, -1),
    "free-s-negative": lambda: freespace.free_besov(2, -0.5, 4),
    "free-s-nan": lambda: freespace.free_besov(2, math.nan, 4),
    "free-word-letter-past-d": lambda: freespace.FreePolynomial(2, {(1, 3): 1.0}),
    "free-letter-0": lambda: freespace.FreePolynomial.letter(0, 2),
    "free-tuple-of-other-d": lambda: freespace.evaluate_on_tuple(_free_affine(), [np.eye(2)]),
    "free-corona-l-max-0": lambda: freespace.row_contraction_inversion_report(
        2, 0.5, 2, 3, 1, l_max=0),
    "compress-check-against-hardy": lambda: freespace.compression_check(
        freespace.free_hardy(2, 8), hardy(2, 8), _free_affine(), 3),
    "moments-empty": lambda: spaces.MomentSequence(()),
    "moments-m0-0": lambda: spaces.MomentSequence((0.0, 0.0)),
    "moments-too-few": lambda: spaces.SpaceSpec(
        "diagonal_besov", 1, 0, 4, moments=spaces.MomentSequence((1.0, 0.5))),
    "custom-entry-missing": lambda: spaces.SpaceSpec(
        "custom_diagonal", 1, 0, 2, custom_weights={(0,): 1.0, (1,): 1.0}),
    "custom-entry-0": lambda: spaces.SpaceSpec(
        "custom_diagonal", 1, 0, 2, custom_weights={(0,): 1.0, (1,): 0.0, (2,): 1.0}),
    "custom-entry-nan": lambda: spaces.SpaceSpec(
        "custom_diagonal", 1, 0, 2, custom_weights={(0,): 1.0, (1,): math.nan, (2,): 1.0}),
    "besov-without-moments": lambda: spaces.SpaceSpec("diagonal_besov", 1, 0, 2),
    "custom-without-table": lambda: spaces.SpaceSpec("custom_diagonal", 1, 0, 2),
    "space-kind": lambda: spaces.SpaceSpec("sobolev", 1),
    "space-N-negative": lambda: spaces.SpaceSpec("diagonal_besov", 1, -1, 2),
    "mixed-d-0": lambda: mixednorm.MixedSpec(0, 0, 2.0, 2.0, [1.0], [1.0]),
    "radial-measure": lambda: mixednorm.MixedSpec.with_measure("lebesgue", 1, 0, 2.0, 2.0),
    "point-mass-count": lambda: mixednorm.MixedSpec.with_measure(
        "point_mass", 1, 0, 2.0, 2.0, radial_count=4),
    "radial-lengths-differ": lambda: _mixed(2.0, 2.0, nodes=[0.5, 1.0]),
    "angular-count-4": lambda: mixednorm.MixedSpec.with_measure(
        "point_mass", 1, 0, 2.0, 2.0, angular_count=4),
    "mixed-norm-of-other-d": lambda: mixednorm.mixed_norm(_mixed(3.0, 2.0), Polynomial.one(2)),
    "mixed-index-of-other-d": lambda: mixednorm.mixed_index(
        _mixed(3.0, 2.0), Polynomial.one(2), 1),
    "index-n-negative": lambda: indices.subspace_distance(
        hardy(1), Polynomial.one(1), _one_minus_z(), -1),
    "perturb-zero-f": lambda: indices.check_perturbation_bound(
        hardy(1), Polynomial.zero(1), _one_minus_z(), 2),
    "perturb-zero-g": lambda: indices.check_perturbation_bound(
        hardy(1), _one_minus_z(), Polynomial.zero(1), 2),
    "weight-stability-without-moments": lambda: indices.check_weight_stability(
        drury_arveson(2), drury_arveson(2), Polynomial.one(2), 2),
    "radial-derivative-order-negative": lambda: _one_minus_z().radial_derivative(-1),
    "zero-polynomial-without-d": lambda: Polynomial.from_json([]),
    "inversion-length-negative": lambda: invert_power_series(_one_minus_z(), -1),
    "space-neither-string-nor-object": lambda: parse_space(3),
}


@pytest.mark.parametrize("call", [*NON_FINITE.values(), *REFUSED.values()],
                         ids=[*NON_FINITE, *REFUSED])
def test_library_refuses_what_the_cli_refuses(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("build", RESULTS.values(), ids=RESULTS.keys())
def test_result_json_is_camel_case_fields_as_written(tmp_path, monkeypatch, build):
    result = build()
    encoded = result.to_json()
    camel = [
        re.sub(r"_([a-z])", lambda m: m.group(1).upper(), f.name)
        for f in dataclasses.fields(result)
    ]
    assert list(encoded) == camel
    json.dumps(encoded, allow_nan=False)
    monkeypatch.setitem(cli_mod.COMMANDS, "index", lambda config: (result.to_json(), None))
    written = cli_mod.run_command("index", {}, tmp_path)
    assert json.loads(written.read_text())["result"] == encoded


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e308, -1e308, 1e16, 3.0, -2.0, 0.1,
                   math.nan, math.inf, -math.inf]
_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_NUMPY = (_FLOATS.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
          | st.booleans().map(np.bool_) | st.lists(_FLOATS, max_size=3).map(np.array))
_LEAVES = (st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=6)
           | st.complex_numbers() | _NUMPY)
def _terms(field, parts, word):
    term = st.fixed_dictionaries({field: st.lists(word, max_size=3), "re": parts, "im": parts})
    return st.lists(term, min_size=1, max_size=3)


# plain term arrays shaped as SparseSeries.to_json builds them, and near
# misses: a bool or numpy entry, a missing or null part. Neither is a
# TermArray, so the writer lays both out by its generic walk
_WELL_FORMED = [_terms(field, _FLOATS | st.integers(), st.integers(0, 3))
                for field in ("exponents", "letters")]
_NEAR_MISSES = (
    _terms("exponents", st.sampled_from([True, None, np.float64(1.5)]), st.integers(0, 3))
    | _terms("letters", _FLOATS, st.sampled_from([True, np.int64(2)]))
    | _WELL_FORMED[0].map(lambda ts: ts + [{k: ts[0][k] for k in ("exponents", "re")}])
)
_JSON = st.recursive(
    st.one_of(_LEAVES, *_WELL_FORMED, *_WELL_FORMED, _NEAR_MISSES),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4) | st.integers(0, 3), inner, max_size=3)),
    max_leaves=12,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=_JSON)
    def test_writes_the_bytes_of_json_dumps(self, tmp_path, value):
        path = tmp_path / "out.json"
        cli_mod.write_json(path, value)
        expected = json.dumps(jsonsafe(value), sort_keys=True, indent=2, allow_nan=False)
        assert path.read_bytes() == (expected + "\n").encode()

    def test_series_terms_at_depth(self, tmp_path):
        p = Polynomial(2, {(0, 0): 1.0, (3, 1): -0.0 + 2j, (1, 0): 5e-324, (0, 2): 1e16})
        f = freespace.FreePolynomial(2, {(): 1e308, (2, 1, 2): -1.5j})
        zero = Polynomial.zero(2).to_json()
        payload = {"a": [{"b": p.to_json()}, f.to_json(), [f.to_json()]], "c": p.to_json(),
                   "t": (f.to_json(), zero), "z": zero}
        path = tmp_path / "out.json"
        cli_mod.write_json(path, payload)
        expected = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        assert path.read_text() == expected + "\n"
        assert '"z": []' in expected

    def test_series_and_results_hold_term_arrays(self):
        # a plain list would still be written right, by the slower generic walk
        mixed = RESULTS["mixed-index"]().to_json()
        assert type(_one_minus_z().to_json()) is TermArray
        assert type(_free_affine().to_json()) is TermArray
        assert type(RESULTS["approximant-free"]().to_json()["phi"]) is TermArray
        approximant = indices.subspace_distance(hardy(1), Polynomial.one(1), _one_minus_z(), 2)
        assert type(approximant.to_json()["phi"]) is TermArray
        assert type(mixed["phi"]) is TermArray

    @pytest.mark.parametrize("command", CLI_CONFIGS)
    def test_acceptance_outputs_have_the_documented_layout(self, tmp_path, command):
        # sorted keys, 2-space indent, repr floats, ASCII escapes, LF and a
        # final newline: what json.dumps writes for the same values
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc, path = run_cli(tmp_path, command, CLI_CONFIGS[command])
        assert rc == 0
        text = path.read_bytes().decode("ascii")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
