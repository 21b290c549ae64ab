import dataclasses
import json
import logging
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import cyclicity.cli as cli_mod
from cyclicity import capacity, freespace, indices, mixednorm
from cyclicity.cli import main, parse_polynomial, parse_space
from cyclicity.errors import ArgumentError
from cyclicity.poly import Polynomial
from cyclicity.spaces import dirichlet_type, drury_arveson, hardy
from helpers import subprocess_env
from test_acceptance import CLI_CONFIGS


def run_cli(tmp_path, command, config, out="out", extra=()):
    cfg = tmp_path / f"{command}.config.json"
    cfg.write_text(json.dumps(config))
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


class TestDeterminism:
    def test_small_solves_load_no_scipy(self, tmp_path):
        # every design these commands solve on the acceptance configs has at
        # most solver.DENSE_MAX_COLUMNS columns, which numpy solves alone
        commands = ("index", "sweep", "free-index", "compress-check", "perturb",
                    "mixed-index", "report")
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
