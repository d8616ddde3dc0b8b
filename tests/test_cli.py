"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from hgfq import cli, suites, varieties
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


@pytest.mark.parametrize("args, error", [
    (["--p", "3", "--e", "0"], "e must be positive"),
    (["--q", "9", "--p", "5"], "give --q or --p/--e, not both"),
    (["--q", "5", "--e", "3"], "give --q or --p/--e, not both"),
    (["--q", "9", "--e", "2"], "give --q or --p/--e, not both"),
])
def test_field_options_fail_closed(runner, args, error):
    result = runner.invoke(main, ["field", *args])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output) == {"error": error}


@pytest.mark.parametrize("args, q", [(["--p", "3", "--e", "2"], 9), (["--p", "3"], 3), (["--q", "9"], 9)])
def test_field_options_accepted(runner, args, q):
    assert _json(runner.invoke(main, ["field", *args]))["q"] == q


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


def test_gauss_circ_matches_library(runner):
    from hgfq.chars import MulChar, standard_psi
    from hgfq.ffield import build_field
    from hgfq.sums import gauss_circ

    f = build_field(5)
    psi = standard_psi(f)
    data = _json(runner.invoke(main, ["gauss", "--q", "5", "--circ"]))
    assert [row["chi"] for row in data] == list(range(f.N))
    for row in data:
        assert row["value"] == gauss_circ(MulChar(f, row["chi"]), psi).to_json()
    assert data[0]["value"]["num"] == [5] + [0] * 19  # j = 0 gives q


def test_hgf_raw_is_the_unwrapped_sum(runner):
    from hgfq.chars import MulChar
    from hgfq.ffield import build_field
    from hgfq.hgf import hgf, mfn

    f = build_field(5)
    args = ["hgf", "--q", "5", "--upper", "1,2", "--lower", "3", "--lam", "2"]
    raw = _json(runner.invoke(main, args + ["--raw"]))["value"]
    ups, los = [MulChar(f, 1), MulChar(f, 2)], [MulChar(f, 3)]
    assert raw == hgf(ups, los, 2).to_json()
    assert raw != mfn(ups, los, 2).to_json()


def test_hgf_without_characters_reads_psi_from_the_field(runner):
    # 0F0 has no character to infer the field from: --q names it
    from hgfq.chars import standard_psi
    from hgfq.ffield import build_field
    from hgfq.hgf import mfn

    result = runner.invoke(main, ["hgf", "--q", "5", "--upper", "", "--lower", "", "--lam", "2"])
    assert _json(result)["value"] == mfn([], [], 2, standard_psi(build_field(5))).to_json()


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


def test_additive_codes_are_field_codes(runner):
    # at q = 4 the code 2 is an element outside the prime field, not 2 mod p
    from hgfq.chars import AddChar, MulChar
    from hgfq.ffield import build_field_q
    from hgfq.sums import gauss
    from hgfq.varieties import ASStar, GroupChar

    f = build_field_q(4)
    psi = AddChar(f, 2)
    data = _json(runner.invoke(main, ["count", "--q", "4", "--family", "as", "--chi", "1,2"]))
    want = ASStar(f).n_chi(GroupChar((MulChar(f, 1), psi)))
    assert data["n_chi"] == want.to_json() and not want.is_zero()
    assert data["agree"] is True
    data = _json(runner.invoke(main, ["gauss", "--q", "4", "--chi", "1", "--psi", "2"]))
    assert data["value"] == gauss(MulChar(f, 1), psi).to_json()


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
    for args, error in (
            (["--family", "kummer", "--q", "4", "--lam", "2", "--c", "0"],
             "unit part 0 is not a unit of F_4"),
            (["--family", "phi3", "--q", "3", "--lam1", "2", "--lam2", "2", "--c2", "3"],
             "unit part 3 is not a unit of F_3")):
        result = runner.invoke(main, ["iso", *args])
        assert result.exit_code == 2, result.output
        assert json.loads(result.output) == {"error": error}


def test_iso_rejects_sample_below_one(runner):
    # a sample of no character would report a transport pass that checked nothing
    for sample in ("0", "-3"):
        result = runner.invoke(main, [
            "iso", "--family", "gauss", "--q", "4", "--lam", "2", "--sigma", "1 3",
            "--sample", sample])
        assert result.exit_code == 2, result.output
        assert "--sample" in result.output and "Traceback" not in result.output
    data = _json(runner.invoke(main, [
        "iso", "--family", "gauss", "--q", "4", "--lam", "2", "--sigma", "1 3",
        "--sample", "1", "--no-check"]))
    assert data["transport"] == {"checked": 1, "pass": True}


@pytest.mark.parametrize("args", [
    ["gauss", "--q", "6"],
    ["gauss", "--q", "5", "--chi", "1", "--psi", "0"],
    ["jacobi", "--q", "5", "--chi", "1"],
    ["jacobi", "--q", "5", "--chi", "x,1"],
    ["phi", "--q", "5", "--delta", "3,3", "--lams", "2", "--chi", "1;1"],
    ["phi", "--q", "3", "--delta", "1,1", "--z", "5,0;0,1", "--chi", "1;1"],
    ["phi", "--q", "3", "--delta", "1,2", "--z", "1,0,1;0,1,1", "--chi", "1;1:7"],
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
    ["count", "--family", "mxn", "--q", "3"],
    ["count", "--family", "general", "--q", "3", "--delta", "1,2"],
    ["count", "--family", "fermat", "--q", "3", "--n", "0"],
    ["count", "--family", "fd", "--q", "3", "--n", "0", "--lams", "2"],
    ["count", "--family", "fa", "--q", "3", "--n", "0", "--lams", "2"],
    ["count", "--family", "fc", "--q", "3", "--n", "0", "--lams", "2"],
    ["phi", "--q", "3", "--delta", "1,1", "--z", "1,0;0,1", "--chi", "1;1;1"],
    ["iso", "--family", "kummer", "--q", "4", "--lam", "9", "--sigma", "1 2"],
    ["iso", "--family", "gauss", "--q", "4", "--lam", "9"],
    ["iso", "--family", "fd", "--q", "4", "--lams", "2,9"],
    ["iso", "--family", "phi1", "--q", "3", "--lam1", "5", "--lam2", "1"],
    ["gauss", "--q", "4", "--chi", "1", "--psi", "4"],
    ["count", "--q", "4", "--family", "as", "--chi", "1,4"],
    ["count", "--q", "3", "--family", "general", "--delta", "1,2", "--z", "9,0,1;0,1,1",
     "--chi", "1,1,1"],
    ["phi", "--q", "3", "--delta", "1,2", "--z", "1,0,1;0,1,1", "--chi", "1;1:1", "--psi", "0"],
])
def test_bad_input_fails_closed(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["error"]
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, error", [
    (["--q", "5", "--delta", "1,1,2", "--lams", "7", "--chi", "1;1;2:1"],
     "parameters must be field element codes 0..4; got (7,)"),
    (["--q", "5", "--delta", "1,1,1,1", "--lams", "6", "--chi", "1;1;1;1"],
     "parameters must be field element codes 0..4; got (6,)"),
    (["--q", "4", "--delta", "1,1,2", "--lams", "9", "--chi", "1;1;2:1"],
     "parameters must be field element codes 0..3; got (9,)"),
    (["--q", "5", "--delta", "2,2", "--lams", "1,2", "--chi", "1:1;3:2"],
     "shape (2, 2) takes 1 parameter(s); got (1, 2)"),
    # --lams is never dropped silently next to --z, not even a valid one
    (["--q", "5", "--delta", "1,1,2", "--z", "1,0,1,0;0,1,1,1", "--lams", "99",
      "--chi", "1;1;2:1"], "give --z or --lams, not both"),
    (["--q", "5", "--delta", "1,1,2", "--z", "1,0,1,0;0,1,1,1", "--lams", "2",
      "--chi", "1;1;2:1"], "give --z or --lams, not both"),
])
def test_phi_lams_fail_closed(runner, args, error):
    # a code past q - 1 is not reduced mod q, and a wrong count is named
    result = runner.invoke(main, ["phi", *args])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output) == {"error": error}


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
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
    # the number of cases each claim checks, so that no rewrite checks fewer
    assert [rec["rhs"] for rec in serial["claims"]] == [72, 108, 4, 4, 384, 1944, 5]


def test_verify_unknown_suite_errors(runner):
    result = runner.invoke(main, ["verify", "--suite", "no-such-suite"])
    assert result.exit_code != 0
    assert "unknown suite" in result.output


def test_verify_symmetry_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "symmetry"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["pass"] is True
    assert [rec["rhs"] for rec in data["claims"]] == [576, 864, 2592, 8, 16, 32]


def test_symmetry_claim_reads_phi_from_tables(monkeypatch):
    # one table per z and per z w, one w-action per (w, chi), no single value
    from hgfq import genhgf

    calls = {"phi_table": 0, "w_action_on_char": 0}

    def counted(name):
        fn = getattr(genhgf, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(genhgf, name, counted(name))
    monkeypatch.setattr(genhgf, "phi_delta", None)
    rec = suites.run_claim(("_claim_symmetry", {"q": 3, "parts": (1, 1, 2)}, 0))
    assert rec["equal"] and rec["rhs"] == 576
    # 4 z, 6 w and 24 characters
    assert calls == {"phi_table": 4 + 6 * 4, "w_action_on_char": 6 * 24}


# -- what each command imports ---------------------------------------------------

_OPTIONAL = ("hgfq.genhgf", "hgfq.varieties", "concurrent.futures.process")

# Runs in a fresh interpreter, since this test process has imported every layer.
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    def loaded():
        return [m for m in %r if m in sys.modules]

    from hgfq.cli import main

    stages = {"import": loaded()}

    def run(*args):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(list(args), standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0, (args, exc.code)

    run("field", "--q", "9")
    run("gauss", "--q", "5", "--chi", "1")
    run("gauss", "--q", "5", "--table")
    run("jacobi", "--q", "5", "--chi", "1,2")
    run("hgf", "--q", "5", "--upper", "1,1", "--lower", "0", "--lam", "2")
    run("lauricella", "--q", "5", "--kind", "D", "--alpha", "1", "--beta", "1,2",
        "--gamma", "3", "--delta", "0,0", "--lams", "2,3")
    run("humbert", "--q", "5", "--kind", "1", "--upper", "1,2", "--gamma", "3",
        "--delta", "0,0", "--lam1", "2", "--lam2", "3")
    run("verify", "--suite", "gauss-sums")
    stages["values"] = loaded()
    run("phi", "--q", "3", "--delta", "1,1,2", "--lams", "2", "--chi", "1;1;0:1")
    stages["phi"] = loaded()
    run("count", "--family", "mxn", "--m", "2", "--n", "2", "--q", "3", "--lam", "2",
        "--chi", "1,1,0,0")
    stages["count"] = loaded()
    print(json.dumps(stages))
""" % (_OPTIONAL,))


@pytest.fixture(scope="module")
def import_stages():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_optional_layer(import_stages):
    assert import_stages["import"] == []


def test_value_commands_load_only_their_layers(import_stages):
    assert import_stages["values"] == []
    assert import_stages["phi"] == ["hgfq.genhgf"]
    assert import_stages["count"] == ["hgfq.genhgf", "hgfq.varieties"]


def test_literal_names_match_their_tables():
    assert cli._ISO_FAMILIES == tuple(varieties.FAMILIES)
    assert cli._SUITES == tuple(sorted(suites.CLAIMS))
    assert set(suites.LAYERS) == set(suites.CLAIMS)
