"""End-to-end tests for the command-line interface."""

import json
import os

import pytest
from click.testing import CliRunner

from hgfq.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_field_descriptor(runner):
    data = _json(runner.invoke(main, ["field", "--p", "3", "--e", "2"]))
    assert data["p"] == 3 and data["e"] == 2 and data["q"] == 9
    assert data["N"] == 8
    assert data["generator"] in data["generators"]
    assert len(data["modulus"]) == 3 and data["modulus"][0] == 1


def test_field_requires_size(runner):
    result = runner.invoke(main, ["field"])
    assert result.exit_code != 0


def test_gauss_spot_value(runner):
    # g(chi_1, psi) over F_3 is zeta_3^2 - zeta_3 = 1 - 2*zeta_6.
    data = _json(runner.invoke(main, ["gauss", "--q", "3", "--chi", "1"]))
    assert data["value"] == {"m": 6, "num": [1, -2, 0, 0, 0, 0], "den": 1}


def test_gauss_table_lists_all_characters(runner):
    result = runner.invoke(main, ["gauss", "--q", "5", "--table"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "chi,value"
    assert len(lines) == 5  # header + N = 4 characters


def test_jacobi_spot_value(runner):
    data = _json(runner.invoke(main, ["jacobi", "--q", "3", "--chi", "1,1"]))
    assert data["value"] == {"m": 2, "num": [-1, 0], "den": 1}


def test_hgf_2f1_at_one(runner):
    data = _json(runner.invoke(
        main, ["hgf", "--q", "3", "--upper", "1,1", "--lower", "0", "--lam", "1"]))
    assert data["value"]["num"][0] == -1
    assert all(c == 0 for c in data["value"]["num"][1:])


def test_hgf_table_rows(runner):
    result = runner.invoke(
        main, ["hgf", "--q", "3", "--upper", "1,1", "--lower", "0", "--table"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "upper,lower,lam,value"
    assert len(lines) == 1 + 2 * 2 * 2 * 3  # all (upper, lower, lam) combos


def test_lauricella_matches_library(runner):
    from hgfq.chars import MulChar
    from hgfq.ffield import build_field
    from hgfq.hgf import lauricella

    f = build_field(3)
    want = lauricella("D", [MulChar(f, 1)], [MulChar(f, 1)], [MulChar(f, 0)],
                      [MulChar(f, 1)], (2,))
    data = _json(runner.invoke(main, [
        "lauricella", "--q", "3", "--kind", "D", "--alpha", "1", "--beta", "1",
        "--gamma", "0", "--delta", "1", "--lams", "2"]))
    assert data["value"] == want.to_json()


def test_humbert_runs(runner):
    data = _json(runner.invoke(main, [
        "humbert", "--q", "3", "--kind", "1", "--upper", "1,1", "--gamma", "0",
        "--delta", "1,1", "--lam1", "1", "--lam2", "2"]))
    assert set(data["value"]) == {"m", "num", "den"}


def test_phi_matches_library(runner):
    from hgfq.chars import AddChar, MulChar
    from hgfq.ffield import build_field
    from hgfq.genhgf import HDeltaChar, JmChar, Partition, normalized_z, phi_delta

    f = build_field(3)
    psi = AddChar(f, 1)
    delta = Partition((1, 1, 2))
    chi = HDeltaChar(delta, (JmChar(MulChar(f, 1), (), psi),
                             JmChar(MulChar(f, 1), (), psi),
                             JmChar(MulChar(f, 0), (1,), psi)))
    want = phi_delta(chi, normalized_z(f, (1, 1, 2), (2,)))
    data = _json(runner.invoke(main, [
        "phi", "--q", "3", "--delta", "1,1,2", "--lams", "2",
        "--chi", "1;1;0:1"]))
    assert data["value"] == want.to_json()


def test_phi_rejects_bad_block_arity(runner):
    result = runner.invoke(main, [
        "phi", "--q", "3", "--delta", "1,2", "--lams", "2", "--chi", "1;1"])
    assert result.exit_code != 0


def test_count_reports_closed_form_agreement(runner):
    data = _json(runner.invoke(main, [
        "count", "--family", "mxn", "--m", "2", "--n", "2", "--q", "3",
        "--lam", "2", "--chi", "1,1,0,0"]))
    assert data["shape"] == "uuuu"
    assert data["agree"] is True


def test_count_naive_and_hypothesis_note(runner):
    data = _json(runner.invoke(main, [
        "count", "--family", "mxn", "--m", "1", "--n", "1", "--q", "3",
        "--lam", "2", "--chi", "1,1", "--naive", "1"]))
    # alpha = beta = chi_1, so alpha * beta is trivial: hypothesis violated.
    assert data["closed_form"] is None and "note" in data
    assert data["naive"]["r"] == 1


def test_count_rejects_wrong_chi_arity(runner):
    result = runner.invoke(main, [
        "count", "--family", "fermat", "--n", "2", "--q", "3", "--chi", "1"])
    assert result.exit_code != 0


def test_iso_gauss_argument_flip(runner):
    data = _json(runner.invoke(main, [
        "iso", "--family", "gauss", "--q", "3", "--lam", "2", "--sigma", "1 3"]))
    # The (1 3) swap sends lam to 1 - lam = 2 (over F_3, 1 - 2 = 2).
    assert data["target_params"]["lam"] == 2
    assert data["transport"]["pass"] is True
    assert data["verify"]["pass"] is True


def test_iso_kummer_full_check(runner):
    data = _json(runner.invoke(main, [
        "iso", "--family", "kummer", "--q", "3", "--lam", "2",
        "--sigma", "1 2", "--c", "2", "--sample", "6"]))
    assert data["transport"]["pass"] is True
    assert data["verify"]["pass"] is True
    assert data["verify"]["checked"] > 0


def test_iso_two_values_are_a_transposition_at_arity_two(runner):
    for family, params in (("kummer", ["--lam", "2"]), ("phi3", ["--lam1", "2", "--lam2", "2"])):
        data = _json(runner.invoke(main, [
            "iso", "--family", family, "--q", "3", *params, "--sigma", "1 2", "--no-check"]))
        assert data["symmetry"].startswith("((1, 0), ")
    for sigma in ("1 3", "0 1", "a b"):
        result = runner.invoke(main, [
            "iso", "--family", "kummer", "--q", "3", "--lam", "2", "--sigma", sigma])
        assert result.exit_code == 2, result.output
        assert "--sigma" in result.output and "Traceback" not in result.output


def test_iso_unit_part_is_a_field_code(runner):
    # over F_4 the code 2 is a unit, not the integer 2 = 0
    data = _json(runner.invoke(main, [
        "iso", "--family", "kummer", "--q", "4", "--lam", "2",
        "--c", "2", "--sample", "6", "--no-check"]))
    assert data["symmetry"] == "((0, 1), 2)"
    assert data["transport"]["pass"] is True


def test_iso_rejects_non_unit_part(runner):
    for args in (["--family", "kummer", "--q", "4", "--lam", "2", "--c", "0"],
                 ["--family", "phi3", "--q", "3", "--lam1", "2", "--lam2", "2",
                  "--c2", "3"]):
        result = runner.invoke(main, ["iso", *args])
        assert result.exit_code == 2, result.output
        assert "not a unit" in json.loads(result.output)["error"]


@pytest.mark.parametrize("args", [
    ["gauss", "--q", "6"],
    ["gauss", "--q", "5", "--chi", "1", "--psi", "0"],
    ["jacobi", "--q", "5", "--chi", "1"],
    ["jacobi", "--q", "5", "--chi", "x,1"],
    ["phi", "--q", "5", "--delta", "3,3", "--lams", "2", "--chi", "1;1"],
    ["lauricella", "--q", "5", "--kind", "D", "--alpha", "1", "--beta", "1,2", "--gamma", "1",
     "--delta", "1,2", "--lams", "2"],
    ["lauricella", "--q", "5", "--kind", "A", "--alpha", "1", "--beta", "1,2", "--gamma", "1",
     "--delta", "1,2", "--lams", "2,3"],
    ["humbert", "--q", "5", "--kind", "2", "--upper", "1", "--gamma", "1", "--delta", "1,1",
     "--lam1", "2", "--lam2", "3"],
    ["lauricella", "--q", "5", "--kind", "D", "--alpha", "", "--beta", "", "--gamma", "",
     "--delta", "", "--lams", ""],
    ["hgf", "--q", "5", "--upper", "1", "--lower", "1", "--lam", "7"],
    ["humbert", "--q", "5", "--kind", "1", "--upper", "1,2", "--gamma", "1", "--delta", "1,1",
     "--lam1", "9", "--lam2", "2"],
])
def test_bad_input_fails_closed(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["error"]
    assert "Traceback" not in result.output


def test_verify_jobs_are_clamped(runner, monkeypatch):
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, entries):
            return [{"claim": e[0], "lhs": 0, "rhs": 0, "equal": True} for e in entries]

    monkeypatch.setattr("hgfq.cli.ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for suite, jobs, want in (("gauss-sums", 1000, 4), ("varieties", 2, 2), ("varieties", 5, 4)):
        assert runner.invoke(main, ["verify", "--suite", suite, "--jobs", str(jobs)]).exit_code == 0
        assert started.pop() == want
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert runner.invoke(main, ["verify", "--suite", "varieties", "--jobs", "1000"]).exit_code == 0
    assert started.pop() == 7  # the number of claims in the suite
    result = runner.invoke(main, ["verify", "--suite", "varieties", "--jobs", "0"])
    assert result.exit_code == 2 and not started


def test_verify_suite_passes(runner):
    result = runner.invoke(main, ["verify", "--suite", "gauss-sums"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["pass"] is True
    for rec in data["claims"]:
        assert set(rec) >= {"claim", "lhs", "rhs", "equal"}
        assert rec["equal"] and rec["lhs"] == rec["rhs"]


def test_verify_parallel_matches_serial(runner):
    serial = json.loads(runner.invoke(
        main, ["verify", "--suite", "varieties"]).output)
    parallel = json.loads(runner.invoke(
        main, ["verify", "--suite", "varieties", "--jobs", "2"]).output)
    assert serial == parallel
    assert serial["pass"] is True


def test_verify_unknown_suite_errors(runner):
    result = runner.invoke(main, ["verify", "--suite", "no-such-suite"])
    assert result.exit_code != 0
    assert "unknown suite" in result.output


def test_verify_symmetry_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "symmetry"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["pass"] is True
