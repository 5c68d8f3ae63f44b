import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from graphentropy import cli, entropy, enumeration, verify
from graphentropy.cli import _run_claim, _threads, main
from graphentropy.enumeration import clear_census
from graphentropy.entropy import star_entropy_closed
from graphentropy.enumeration import canonical_form
from graphentropy.graphs import path, star, write_graph6


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text):
    # NaN, Infinity and -Infinity are Python's extensions, not JSON
    return json.loads(text, parse_constant=_reject_constant)


def json_lines(out):
    return [strict_json(line) for line in out.splitlines() if line]


# --- entropy ----------------------------------------------------------------


def test_entropy_family_star_json(capsys):
    rc, out, _ = run(capsys, "entropy", "--family", "star", "--n", "8", "--alpha", "2")
    assert rc == 0
    (row,) = json_lines(out)
    assert row["graph6"] == write_graph6(star(8))
    assert row["n"] == 8 and row["m"] == 7
    assert row["S"] == pytest.approx(star_entropy_closed(8), abs=1e-9)
    assert row["tr2"] == "5/14"
    assert row["H_2"] == pytest.approx(-math.log2(5 / 14), abs=1e-9)
    assert row["star_test"] is False


def test_entropy_reads_stdin_by_default(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nBW\n"))
    rc, out, _ = run(capsys, "entropy")
    assert rc == 0
    rows = json_lines(out)
    assert [r["n"] for r in rows] == [4, 3]
    assert rows[0]["S"] == pytest.approx(math.log2(3), abs=1e-9)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--family", "star"), "needs --n"),
        (("--n", "8"), "--n is used only with --family"),
        (("--family", "star", "--n", "3", "--input", "/nonexistent/file.g6"), "--input"),
    ],
    ids=["family-without-n", "n-without-family", "family-with-input"],
)
def test_entropy_rejects_family_and_n_apart_before_reading_input(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    rc, out, err = run(capsys, "entropy", *argv)
    assert rc == 1 and out == "" and flag in err
    assert sys.stdin.read() == "C~\n"  # nothing was read


def test_entropy_csv_agrees_with_json(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("C~\nA?\nBW\n")  # includes an edgeless graph (null entropies)
    rc_j, out_j, _ = run(capsys, "entropy", "--input", str(src), "--alpha", "2")
    rc_c, out_c, _ = run(capsys, "entropy", "--input", str(src), "--alpha", "2", "--format", "csv")
    assert rc_j == rc_c == 0
    assert "\r" not in out_c
    jrows = json_lines(out_j)
    crows = list(csv.DictReader(io.StringIO(out_c)))
    assert len(jrows) == len(crows) == 3
    for jr, cr in zip(jrows, crows):
        assert cr["graph6"] == jr["graph6"]
        assert int(cr["n"]) == jr["n"] and int(cr["m"]) == jr["m"]
        for key in ("S", "H_2"):
            if jr[key] is None:
                assert cr[key] == ""
            else:
                assert float(cr[key]) == pytest.approx(jr[key], abs=1e-12)
        assert (cr["star_test"] == "True") == (jr["star_test"] is True) or jr["star_test"] is None


def test_entropy_text_format(capsys):
    rc, out, _ = run(capsys, "entropy", "--family", "path", "--n", "4", "--format", "text")
    assert rc == 0
    assert "graph6=" in out and "S=" in out


def test_entropy_bipartite_family(capsys):
    rc, out, _ = run(capsys, "entropy", "--family", "bipartite", "--n", "2,3")
    assert rc == 0
    (row,) = json_lines(out)
    assert row["n"] == 5 and row["m"] == 6


def test_entropy_bipartite_bad_spec(capsys):
    rc, _, err = run(capsys, "entropy", "--family", "bipartite", "--n", "5")
    assert rc == 1
    assert "error:" in err


# --- table1 ------------------------------------------------------------------


def test_table1_range_json(capsys):
    rc, out, _ = run(capsys, "table1", "--n", "2..5")
    assert rc == 0
    rows = json_lines(out)
    assert [(r["n"], r["failures"], r["total"]) for r in rows] == [
        (2, 0, 1), (3, 1, 2), (4, 2, 6), (5, 4, 21),
    ]


def test_table1_emit_failing(capsys, tmp_path):
    dest = tmp_path / "failing.g6"
    rc, _, _ = run(capsys, "table1", "--n", "3", "--emit-failing", str(dest))
    assert rc == 0
    assert dest.read_text() == canonical_form(path(3)) + "\n"


def test_table1_emit_failing_opens_its_file_before_the_first_scan(capsys, monkeypatch, tmp_path):
    def no_scan(*args, **kwargs):
        raise AssertionError("table1_row called")

    monkeypatch.setattr(cli, "table1_row", no_scan)
    dest = tmp_path / "missing" / "out.g6"
    rc, out, err = run(capsys, "table1", "--n", "2..8", "--emit-failing", str(dest))
    assert rc == 1 and out == "" and "error:" in err and str(dest) in err


@pytest.mark.parametrize("orders", ["1..3", "3..12"])
def test_table1_bad_range_leaves_an_existing_emit_file_alone(capsys, monkeypatch, tmp_path, orders):
    def no_scan(*args, **kwargs):
        raise AssertionError("table1_row called")

    monkeypatch.setattr(cli, "table1_row", no_scan)
    dest = tmp_path / "failing.g6"
    dest.write_bytes(b"kept\n")
    rc, out, err = run(capsys, "table1", "--n", orders, "--emit-failing", str(dest))
    assert rc == 1 and out == "" and "error: table1 orders must be a range within 2..10" in err
    assert dest.read_bytes() == b"kept\n"


def test_table1_emit_failing_empty_when_none(capsys, tmp_path):
    dest = tmp_path / "failing.g6"
    rc, _, _ = run(capsys, "table1", "--n", "2", "--emit-failing", str(dest))
    assert rc == 0
    assert dest.exists() and dest.read_text() == ""


def test_table1_csv_and_text(capsys):
    rc, out, _ = run(capsys, "table1", "--n", "4", "--format", "csv")
    assert rc == 0
    assert out == "n,failures,total\n4,2,6\n"
    rc, out, _ = run(capsys, "table1", "--n", "4", "--format", "text")
    assert rc == 0
    assert out.splitlines()[1].split() == ["4", "2", "6"]


def test_table1_bad_range(capsys):
    rc, _, err = run(capsys, "table1", "--n", "8..2")
    assert rc == 1 and "error:" in err


# --- verify -------------------------------------------------------------------


def test_verify_star_min_holds_exit_zero(capsys):
    rc, out, err = run(capsys, "verify", "star-min-S", "--n", "5")
    assert rc == 0
    body = strict_json(out)
    assert body["claim"] == "star-min-S" and body["holds"] is True
    assert "runtime" not in body  # timings live on stderr so stdout is stable
    assert "holds=True" in err


def test_verify_counterexamples_exit_three(capsys):
    rc, out, _ = run(capsys, "verify", "edge-add-decrease", "--n", "5")
    assert rc == 3
    body = strict_json(out)
    assert body["holds"] is False
    assert len(body["witnesses"]) == 3
    assert body["stats"]["k2n2_witness_found"] is True


@pytest.mark.parametrize(
    "claim", ["edge-add-decrease", "star-min-S", "renyi-star-min", "tree-extremes"]
)
def test_verify_witness_cap_zero_and_negative(capsys, claim):
    argv = ["verify", claim, "--n", "5"]
    if claim == "renyi-star-min":
        argv += ["--alpha", "1.5"]
    rc, out, _ = run(capsys, *argv, "--witness-cap", "0")
    body = strict_json(out)
    assert body["witnesses"] == []
    # decreases exist at n=5; the other claims hold there
    assert rc == (3 if claim == "edge-add-decrease" else 0)
    assert body["holds"] is (rc == 0)
    rc, out, err = run(capsys, *argv, "--witness-cap", "-1")
    assert rc == 1 and out == "" and "witness cap" in err


def test_verify_coentropy_wrapped(capsys):
    rc, out, _ = run(capsys, "verify", "coentropy", "--n", "4")
    assert rc == 0
    body = strict_json(out)
    assert body["holds"] is True
    assert body["stats"]["group_count"] == len(body["stats"]["groups"])


def test_verify_param_compare(capsys):
    rc, out, _ = run(capsys, "verify", "param-compare", "--n", "4", "--param", "matching")
    assert rc == 0
    stats = strict_json(out)["stats"]
    assert isinstance(stats["drop_count"], int) and isinstance(stats["rise_count"], int)


def test_verify_tree_extremes_h2(capsys):
    rc, out, _ = run(capsys, "verify", "tree-extremes", "--n", "7", "--entropy", "H2")
    assert rc == 0
    assert strict_json(out)["stats"]["exact"] is True


def test_verify_renyi_requires_alpha(capsys):
    rc, _, err = run(capsys, "verify", "renyi-star-min", "--n", "5")
    assert rc == 1 and "alpha" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["star-min-S", "--alpha", "1.5"],
        ["coentropy", "--alpha", "2"],
        ["renyi-star-min", "--alpha", "1.5", "--alpha", "3"],
        ["renyi-max", "--alpha", "2", "--alpha", "2"],
    ],
)
def test_verify_rejects_unused_alpha(capsys, monkeypatch, argv):
    # the check comes before any scan: enumerating would fail this test
    monkeypatch.setattr(verify, "census", None)
    rc, out, err = run(capsys, "verify", *argv, "--n", "5")
    assert rc == 1 and out == "" and "--alpha" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["coentropy", "--witness-cap", "5"], "--witness-cap"),
        (["coentropy", "--entropy", "H2"], "--entropy"),
        (["coentropy", "--param", "matching"], "--param"),
        (["tree-extremes", "--threads", "2"], "--threads"),
        (["star-min-S", "--entropy", "S"], "--entropy"),  # the default value, given
        (["renyi-max", "--alpha", "2", "--witness-cap", "0"], "--witness-cap"),
        (["density-implies-star", "--param", "diameter"], "--param"),
    ],
)
def test_verify_rejects_flags_the_claim_does_not_read(capsys, monkeypatch, argv, flag):
    # as above: the check comes before any scan or tree enumeration
    monkeypatch.setattr(verify, "census", None)
    monkeypatch.setattr(verify, "enumerate_trees", None)
    rc, out, err = run(capsys, "verify", *argv, "--n", "5")
    assert rc == 1 and out == "" and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "star-min-S", "--n", "12"],
        ["verify", "edge-add-decrease", "--n", "11"],
        ["verify", "param-compare", "--n", "1"],
        ["table1", "--n", "2..11"],
        ["table1", "--n", "2..1000000000000000000"],  # the range is never listed
        ["verify", "tree-extremes", "--n", "17"],
        ["verify", "star-min-S", "--n", "11"],
        ["table1", "--n", "11"],
    ],
)
def test_order_bounds_exit_one_before_enumerating(capsys, monkeypatch, argv):
    monkeypatch.setattr(enumeration, "_walk", None)
    monkeypatch.setattr(enumeration, "enumerate_graphs", None)
    monkeypatch.setattr(verify, "enumerate_trees", None)
    monkeypatch.setattr(cli, "table1_row", None)  # table1 checks its whole range first
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == "" and "error:" in err
    assert "density matrix" not in err


def test_verify_theorem_violation_exits_two(capsys, monkeypatch):
    # a tree with a vertex of degree 4 scans with the star's squares, so ties its tr2 at n=6
    real = verify._degree_sums

    def star_squares(rows):
        degs, d_g, sq = real(rows)
        return degs, d_g, np.where(degs.max(axis=1) >= 4, 30, sq)

    monkeypatch.setattr(verify, "_degree_sums", star_squares)
    rc, out, err = run(capsys, "verify", "tree-extremes", "--n", "6", "--entropy", "H2")
    assert rc == 2 and out == ""
    assert err == (
        "THEOREM VIOLATION: star is not the unique H_2 minimizer among trees on 6 vertices\n"
    )


def test_augment_rejects_huge_searches_before_any_eigensolve(capsys, monkeypatch):
    monkeypatch.setattr(entropy, "density_spectrum", None)
    empty20 = "S" + "?" * 32  # 190 absent edges: k = 5 asks for about 2e9 sets
    rc, out, err = run(capsys, "augment", "--input", empty20, "--k", "5", "--x", "1")
    assert rc == 1 and out == "" and "candidate edge sets" in err


def test_round12_writes_infinities_as_strings():
    body = cli._round12({"a": [math.inf, -math.inf, 1 / 3], "b": (2.0,)})
    assert body == {"a": ["inf", "-inf", 0.333333333333], "b": [2.0]}


@pytest.mark.parametrize("claim", ["renyi-max", "renyi-star-min"])
def test_verify_infinite_alpha_prints_strict_json(capsys, claim):
    rc, out, _ = run(capsys, "verify", claim, "--n", "5", "--alpha", "inf")
    assert rc == 0
    body = strict_json(out)
    assert body["holds"] is True and body["stats"]["alpha"] == "inf"
    rc, out, _ = run(capsys, "verify", claim, "--n", "5", "--alpha", "inf", "--format", "text")
    assert rc == 0 and "  alpha: inf\n" in out


@pytest.mark.parametrize(
    "n, alpha", [("6", "1.0000000000000002"), ("5", "1e308")], ids=["near-one", "huge"]
)
def test_verify_renyi_max_holds_at_extreme_orders(capsys, n, alpha):
    # the textbook Renyi form gives H = 3.0 and H = inf here, above log2(n - 1),
    # which the engine would report as a TheoremViolation
    rc, out, err = run(capsys, "verify", "renyi-max", "--n", n, "--alpha", alpha)
    assert rc == 0, err
    stats = strict_json(out)["stats"]
    assert stats["max_entropy"] == stats["bound"] == pytest.approx(math.log2(int(n) - 1))


def test_verify_text_format(capsys):
    rc, out, _ = run(capsys, "verify", "renyi-max", "--n", "4", "--alpha", "2", "--format", "text")
    assert rc == 0
    assert out.startswith("claim: renyi-max")
    assert "holds: True" in out


# each run forgets the kept census first, so both runs really enumerate


def test_verify_stdout_independent_of_threads(capsys):
    clear_census()
    rc1, out1, _ = run(capsys, "verify", "star-min-S", "--n", "6", "--threads", "1")
    clear_census()
    rc2, out2, _ = run(capsys, "verify", "star-min-S", "--n", "6", "--threads", "2")
    assert (rc1, out1) == (rc2, out2)


def test_table1_stdout_independent_of_threads(capsys):
    clear_census()
    rc1, out1, _ = run(capsys, "table1", "--n", "6", "--threads", "1")
    clear_census()
    rc2, out2, _ = run(capsys, "table1", "--n", "6", "--threads", "3")
    assert (rc1, out1) == (rc2, out2)


@pytest.mark.parametrize(
    "argv", [["verify", "star-min-S", "--n", "9"], ["table1", "--n", "9"]], ids=["verify", "table1"]
)
def test_star_scans_past_the_kept_orders_walk_in_one_process(capsys, monkeypatch, argv):
    # the degree-bounded walk at n = 9 starts no pool, whatever --threads says
    monkeypatch.setattr(enumeration, "_parallel", None)
    rc1, out1, _ = run(capsys, *argv, "--threads", "1")
    rc2, out2, _ = run(capsys, *argv, "--threads", "2")
    assert (rc1, out1) == (rc2, out2) and rc1 == 0


@pytest.mark.parametrize("claim", ["coentropy", "param-compare"])
def test_verify_reports_real_runtime(claim):
    args = argparse.Namespace(
        claim=claim, n="6", alpha=None, entropy=None, param=None, witness_cap=None, threads=1
    )
    assert _run_claim(args).runtime > 0


def test_threads_clamped_to_cpu_count():
    # only _threads is called: no pool of this size is ever started
    cpus = os.cpu_count() or 1
    assert _threads(argparse.Namespace(threads=10**6)) == cpus
    assert _threads(argparse.Namespace(threads=0)) == 1
    assert _threads(argparse.Namespace(threads=None)) == 1


# --- augment ---------------------------------------------------------------------


def test_augment_reaches_target(capsys):
    # the diamond plus its one absent edge is K4, whose entropy is log2(3)
    rc, out, _ = run(capsys, "augment", "--input", "Cz", "--k", "1", "--x", repr(math.log2(3)))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "YES 0-3"
    assert lines[1] == "result graph6: C~"


def test_augment_no_solution(capsys):
    rc, out, _ = run(capsys, "augment", "--input", "C~", "--k", "0", "--x", "2.0")
    assert rc == 0
    assert out.strip() == "NO"


def test_augment_zero_edges_needed_and_clamp(capsys):
    rc, out, err = run(capsys, "augment", "--input", "C~", "--k", "3", "--x", "1.5")
    assert rc == 0
    assert "clamped" in err
    assert out.splitlines()[0] == "YES (no edges needed)"


def test_augment_rejects_nan_target_before_any_eigensolve(capsys, monkeypatch):
    monkeypatch.setattr(entropy, "density_spectrum", None)
    rc, out, err = run(capsys, "augment", "--input", "Cz", "--k", "1", "--x", "nan")
    assert rc == 1 and out == "" and "nan" in err


def test_augment_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Cz\n"))
    rc, out, _ = run(capsys, "augment", "--input", "-", "--k", "1", "--x", repr(math.log2(3)))
    assert rc == 0
    assert out.splitlines()[0] == "YES 0-3"


# --- failure paths ----------------------------------------------------------------


def test_bad_graph6_input_exit_one(capsys, tmp_path):
    src = tmp_path / "bad.g6"
    src.write_text("A_\n!!!\n")
    rc, _, err = run(capsys, "entropy", "--input", str(src))
    assert rc == 1 and "error:" in err


def test_missing_input_file_exit_one(capsys):
    rc, _, err = run(capsys, "entropy", "--input", "/nonexistent/graphs.g6")
    assert rc == 1 and "error:" in err


def test_usage_error_exit_one_not_two(capsys):
    rc, _, err = run(capsys, "verify", "no-such-claim", "--n", "5")
    assert rc == 1
    assert "error:" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "entropy" in out and "verify" in out
