"""Command-line surface: output formats, exit codes, determinism.

Everything runs in process through main(argv); the one subprocess test
pins down what an interactive caller actually sees on stderr.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infocost
import infocost.cli as cli
from infocost import (
    NonConcaveWarning,
    PropertyResult,
    binary_experiment,
    coinflip_rows,
    experiment_to_json,
)
from infocost.cli import main


@pytest.fixture
def exp_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment_to_json(binary_experiment(0.8))))
    return str(path)


@pytest.fixture
def beta_file(tmp_path):
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"rule": "constant", "value": 1.0}))
    return str(path)


@pytest.fixture
def matching_file(tmp_path):
    obj = {
        "states": ["s0", "s1"],
        "actions": ["a0", "a1"],
        "utility": [[0.5, 0.0], [0.0, 0.5]],
        "prior": [0.5, 0.5],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def skewed_file(tmp_path):
    obj = {
        "states": ["lo", "hi"],
        "actions": ["keep", "move"],
        "utility": [[1.0, -0.2], [0.1, 0.9]],
        "prior": [0.55, 0.45],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestCost:
    def test_csv_layout(self, exp_file, beta_file, capsys):
        assert main(["cost", "--experiment", exp_file, "--beta", beta_file]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "quantity,state_i,state_j,value"
        assert lines[1] == "cost,,,1.66355323"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds.count("kl") == 2 and kinds.count("beta") == 2

    def test_csv_is_byte_deterministic(self, exp_file, beta_file, capsys):
        main(["cost", "--experiment", exp_file, "--beta", beta_file])
        first = capsys.readouterr().out
        main(["cost", "--experiment", exp_file, "--beta", beta_file])
        assert capsys.readouterr().out == first

    def test_json_with_prior(self, exp_file, beta_file, capsys):
        rc = main(
            [
                "cost",
                "--experiment",
                exp_file,
                "--beta",
                beta_file,
                "--prior",
                "0.3,0.7",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cost"] == pytest.approx(1.663553233343869, rel=1e-12)
        assert report["delta"] < 1e-10
        assert np.array(report["kl"]).shape == (2, 2)

    def test_json_reports_llr_cost_and_no_negative_kl(self, beta_file, tmp_path, capsys):
        # rows 1e-10 apart: unclamped, both divergences round to -2.2e-16
        R = np.array([[0.9, 0.2, 0.1], [0.1, 0.9, 0.1]])
        P = (1.0 - 1e-10) * np.array([0.2, 0.5, 0.3]) + 1e-10 * R / R.sum(axis=1)[:, None]
        P /= P.sum(axis=1, keepdims=True)
        mu = infocost.Experiment(infocost.StateSpace(("a", "b")), ("x", "y", "z"), P)
        exp = tmp_path / "near.json"
        exp.write_text(json.dumps(experiment_to_json(mu)))
        argv = ["cost", "--experiment", str(exp), "--beta", beta_file, "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cost"] == infocost.llr_cost(mu, infocost.constant_betas(mu.states, 1.0))
        assert np.all(np.array(report["kl"]) >= 0.0)

    def test_extreme_valid_prior(self, beta_file, tmp_path, capsys):
        # a posterior puts 7.5e-13 on a state, below the floor a user-given
        # row must clear, yet the prior itself is valid
        exp = tmp_path / "skew.json"
        exp.write_text(
            json.dumps(
                {"states": ["a", "b"], "signals": ["x", "y"], "probs": [[0.5, 0.5], [0.25, 0.75]]}
            )
        )
        argv = ["cost", "--experiment", str(exp), "--beta", beta_file]
        argv += ["--prior", "0.9999999999985,1.5e-12", "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cost_via_posteriors"] == pytest.approx(report["cost"], rel=1e-12)

    def test_out_writes_file(self, exp_file, beta_file, tmp_path, capsys):
        out = tmp_path / "cost.csv"
        main(
            [
                "cost",
                "--experiment",
                exp_file,
                "--beta",
                beta_file,
                "--out",
                str(out),
            ]
        )
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("quantity,")

    def test_bad_prior_text(self, exp_file, beta_file, capsys):
        rc = main(
            [
                "cost",
                "--experiment",
                exp_file,
                "--beta",
                beta_file,
                "--prior",
                "0.5,oops",
            ]
        )
        assert rc == 2
        assert "input error" in capsys.readouterr().err


class TestSolve:
    def test_llr_solution_report(self, matching_file, beta_file, capsys):
        rc = main(
            [
                "solve",
                "--problem",
                matching_file,
                "--cost",
                "llr",
                "--beta",
                beta_file,
                "--tol",
                "1e-10",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["foc_residual"] <= 1e-10
        P = np.array(report["rule"])
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert report["objective"] == pytest.approx(
            report["expected_utility"] - report["cost"], abs=1e-12
        )

    def test_mi_solution_hits_logistic_value(self, matching_file, capsys):
        rc = main(
            [
                "solve",
                "--problem",
                matching_file,
                "--cost",
                "mi",
                "--lambda",
                "0.7",
                "--tol",
                "1e-12",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rule"][0][0] == pytest.approx(
            0.6713474534827301, abs=1e-12
        )

    def test_llr_requires_beta(self, matching_file, capsys):
        rc = main(["solve", "--problem", matching_file, "--cost", "llr"])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_rule_beta_needs_state_values(
        self, matching_file, tmp_path, capsys
    ):
        beta = tmp_path / "rule.json"
        beta.write_text(json.dumps({"rule": "inverse_square", "kappa": 1.0}))
        rc = main(
            [
                "solve",
                "--problem",
                matching_file,
                "--cost",
                "llr",
                "--beta",
                str(beta),
            ]
        )
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_3_but_reports(
        self, skewed_file, tmp_path, capsys
    ):
        out = tmp_path / "result.json"
        rc = main(
            [
                "solve",
                "--problem",
                skewed_file,
                "--cost",
                "mi",
                "--lambda",
                "0.9",
                "--tol",
                "1e-300",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["converged"] is False
        assert report["foc_residual"] < 1e-9  # solved fine, tol was absurd

    def test_zero_price_pair_warns_but_solves(
        self, matching_file, tmp_path, capsys
    ):
        beta = tmp_path / "oneway.json"
        beta.write_text(
            json.dumps(
                {
                    "states": ["s0", "s1"],
                    "coef": [[0.0, 0.5], [0.0, 0.0]],
                }
            )
        )
        with pytest.warns(NonConcaveWarning):
            rc = main(
                [
                    "solve",
                    "--problem",
                    matching_file,
                    "--cost",
                    "llr",
                    "--beta",
                    str(beta),
                    "--tol",
                    "1e-6",
                ]
            )
        assert rc == 0


class TestReproduce:
    def test_coinflip_rows(self, capsys):
        assert main(["reproduce", "coinflip", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,llr_cost,mi_cost"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.8317766166719346, rel=1e-8)
        assert float(first[2]) == pytest.approx(0.192744757, rel=1e-8)

    def test_coinflip_stays_finite_at_large_k(self):
        # past k = 463 plain float likelihoods of extreme counts underflow,
        # and past k = 1030 the binomial coefficients overflow a float
        rows = np.array(coinflip_rows(1200, 1.0, 0.7))
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 2] <= 0.7 * math.log(2.0) + 1e-12)
        llr = rows[:, 1]
        assert np.abs(llr / (rows[:, 0] * llr[0]) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize(
        "argv",
        [["swans"], ["perception"], ["coinflip", "--k", "1200"]],
        ids=["swans", "perception", "coinflip-1200"],
    )
    def test_runs_at_its_defaults(self, argv, capsys):
        assert main(["reproduce", *argv]) == 0
        header, *rows = capsys.readouterr().out.strip().split("\n")
        assert rows
        for row in rows:
            label, *numbers = row.split(",")
            assert len(numbers) == header.count(",")
            assert all(math.isfinite(float(x)) for x in numbers)

    @pytest.mark.parametrize(
        "flag,value", [("--kappa", "-1"), ("--lambda", "-2"), ("--kappa", "nan")]
    )
    def test_coinflip_rejects_bad_prices(self, flag, value, capsys):
        assert main(["reproduce", "coinflip", flag, value]) == 2
        assert capsys.readouterr().out == ""

    def test_swans_single_epsilon(self, capsys):
        assert main(["reproduce", "swans", "--epsilon", "1e-4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epsilon,cost_I,cost_II,ratio"
        assert len(lines) == 2
        eps, ci, cii, ratio = (float(x) for x in lines[1].split(","))
        assert eps == 1e-4
        assert 0.9 <= ci / eps <= 1.1
        assert ratio == pytest.approx(8.218470833344076, rel=1e-8)

    def test_gdp_rows_in_published_windows(self, capsys):
        assert main(["reproduce", "gdp"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "hypothesis,partition_coefficient"
        rows = dict(line.split(",") for line in lines[1:])
        assert 21.0 <= float(rows["H1"]) <= 23.5
        assert 147900.0 <= float(rows["H2"]) <= 148200.0

    def test_perception_row_count(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["reproduce", "perception", "--r", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "state,p_R_llr,p_R_mi"
        assert len(lines) == 7

    def test_unknown_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "entropy"])


class TestCheck:
    def test_axioms_pass_with_report_lines(self, capsys):
        rc = main(["check", "--suite", "axioms", "--trials", "20", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6
        for line in lines:
            assert line.endswith("PASS")
            assert "trials=" in line and "bound=" in line

    def test_violations_exit_1(self, monkeypatch, capsys):
        def fake_suite(suite, seed=0, trials=200):
            return [PropertyResult("rigged", trials, 1.0, 1e-10)]

        monkeypatch.setattr("infocost.checks.run_suite", fake_suite)
        rc = main(["check", "--trials", "5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "rigged" in captured.out and "FAIL" in captured.out
        assert "1 properties violated" in captured.err


class TestInputErrors:
    def test_missing_file(self, beta_file, capsys):
        rc = main(["cost", "--experiment", "/nope/missing.json", "--beta", beta_file])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, beta_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["cost", "--experiment", str(bad), "--beta", beta_file])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "role, obj, says",
        [
            ("problem", 5, "must be an object"),
            (
                "problem",
                {
                    "states": ["s0", "s1"],
                    "actions": ["a0", "a1"],
                    "utility": [[1, "q"], [0, 1]],
                    "prior": [0.5, 0.5],
                },
                "utility",
            ),
            (
                # a valid JSON integer that no float can hold
                "problem",
                {
                    "states": ["s0", "s1"],
                    "actions": ["a0", "a1"],
                    "utility": [[10**400, 0], [0, 1]],
                    "prior": [0.5, 0.5],
                },
                "utility",
            ),
            (
                "experiment",
                {"states": ["H", "L"], "signals": ["h", "t"], "probs": [[0.8, 0.2], [1.0]]},
                "experiment probs",
            ),
            (
                "experiment",
                {
                    "states": ["H", "L"],
                    "signals": ["h", {"t": 1}],
                    "probs": [[0.8, 0.2], [0.2, 0.8]],
                },
                "hashable",
            ),
            (
                "experiment",
                {
                    "states": ["H", "L"],
                    "values": ["p", "q"],
                    "signals": ["h", "t"],
                    "probs": [[0.8, 0.2], [0.2, 0.8]],
                },
                "state values",
            ),
            ("beta", {"rule": "inverse_square", "kappa": "abc"}, "kappa"),
            ("beta", {"rule": "inverse_square", "kappa": True}, "kappa"),
            ("beta", {"rule": "constant", "value": False}, "value"),
        ],
        ids=[
            "not-object",
            "utility",
            "utility-huge-int",
            "ragged",
            "label",
            "values",
            "kappa",
            "kappa-true",
            "value-false",
        ],
    )
    def test_malformed_values_exit_2(
        self, role, obj, says, exp_file, beta_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = {
            "problem": ["solve", "--problem", str(bad), "--cost", "mi"],
            "experiment": ["cost", "--experiment", str(bad), "--beta", beta_file],
            "beta": ["cost", "--experiment", exp_file, "--beta", str(bad)],
        }[role]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and says in err

    @pytest.mark.parametrize(
        "role, field, value",
        [
            ("problem", "actions", "xy"),
            ("problem", "states", 5),
            ("experiment", "states", "ab"),
            ("experiment", "signals", 7),
            ("beta", "states", "ab"),
        ],
        ids=[
            "actions-string",
            "states-number",
            "states-string",
            "signals-number",
            "beta-states-string",
        ],
    )
    def test_label_fields_must_be_lists(self, role, field, value, tmp_path, capsys):
        objs = {
            "problem": {
                "states": ["a", "b"],
                "actions": ["x", "y"],
                "utility": [[1.0, 0.0], [0.0, 1.0]],
                "prior": [0.5, 0.5],
            },
            "experiment": {
                "states": ["a", "b"],
                "signals": ["h", "t"],
                "probs": [[0.8, 0.2], [0.2, 0.8]],
            },
            "beta": {"states": ["a", "b"], "coef": [[0.0, 1.0], [1.0, 0.0]]},
        }
        objs[role][field] = value
        paths = {}
        for name, obj in objs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(obj))
        if role == "problem":
            argv = ["solve", "--problem", paths["problem"], "--cost", "mi"]
        else:
            argv = ["cost", "--experiment", paths["experiment"]]
            argv += ["--beta", paths["beta"]]
        assert main(argv) == 2
        assert "input error" in capsys.readouterr().err


class TestSubprocessEntry:
    def test_warning_reaches_stderr(self, matching_file, tmp_path):
        beta = tmp_path / "oneway.json"
        beta.write_text(
            json.dumps(
                {"states": ["s0", "s1"], "coef": [[0.0, 0.5], [0.0, 0.0]]}
            )
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from infocost.cli import entry; entry()",
                "solve",
                "--problem",
                matching_file,
                "--cost",
                "llr",
                "--beta",
                str(beta),
                "--tol",
                "1e-6",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "NonConcaveWarning" in proc.stderr
        assert json.loads(proc.stdout)["converged"] is True

    @pytest.mark.parametrize(
        "argv, code, says",
        [
            (["--help"], 0, "usage: infocost"),
            (["reproduce", "swans"], 0, "epsilon,cost_I,cost_II,ratio"),
            (["solve", "--problem", "{five}", "--cost", "mi"], 2, "input error"),
        ],
        ids=["help", "swans", "malformed-problem"],
    )
    def test_module_runs_from_the_source_tree(self, argv, code, says, tmp_path):
        five = tmp_path / "five.json"
        five.write_text("5")
        src = str(Path(infocost.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "infocost.cli", *(a.format(five=five) for a in argv)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == code, proc.stderr
        assert says in proc.stdout + proc.stderr

    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(infocost.__file__).parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import infocost; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
