"""Command-line interface: outputs, formats, exit codes, determinism."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charzeta
from charzeta import cli, fibercount, finfield, globalzeta, mahler_measure_mc, varieties
from charzeta.cli import MAX_MAHLER_SAMPLES, MAX_VERIFY_PRIME, build_parser, main
from charzeta.localzeta import LocalZetaFactors
from conftest import expected_singular_points, fresh_env, run_fresh


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_count_all_methods_agree(capsys):
    code, doc = run_json(capsys, "count", "--surface", "L0", "--p", "7", "--n", "1",
                         "--space", "biprojective", "--method", "all")
    assert code == 0 and doc["ok"]
    assert doc["schema"] == "charzeta/1"
    counts = [r["count"] for r in doc["records"]]
    assert counts == [99, 99, 99]
    methods = {r["method"] for r in doc["records"]}
    assert methods == {"brute", "fiberwise", "formula"}


def test_count_single_method(capsys):
    code, doc = run_json(capsys, "count", "--surface", "L1", "--p", "2",
                         "--space", "affine", "--method", "brute")
    assert code == 0
    assert doc["records"][0]["count"] == 2


def test_count_brute_beyond_old_biprojective_cap(capsys):
    # q = 131 used to exit 2 once the affine count had run: the biprojective
    # brute count stopped at q = 128
    code, doc = run_json(capsys, "count", "--surface", "L2", "--space", "all", "--method", "all",
                         "--p", "131")
    assert code == 0 and doc["ok"]
    for space in ("affine", "biprojective", "nonaffine"):
        got = {r["method"]: r["count"] for r in doc["records"] if r["space"] == space}
        assert set(got) == {"brute", "fiberwise", "formula"} and len(set(got.values())) == 1


def test_count_all_spaces_makes_two_brute_passes_per_surface(capsys, monkeypatch):
    # the chart (x, y, 1), q points x over each base point, and the line
    # u = 0, one quadratic over each, both over all of P^1, give the counts
    # in all three spaces
    passes = []
    solutions = varieties._solutions

    def counted(F, a, b, c, xs):
        passes.append(len(xs))
        return solutions(F, a, b, c, xs)

    monkeypatch.setattr(varieties, "_solutions", counted)
    code, doc = run_json(capsys, "count", "--surface", "all", "--space", "all", "--method",
                         "brute", "--p", "5")
    assert code == 0 and len(doc["records"]) == 9
    assert passes == ([5] * 6 + [1] * 6) * 3


def test_count_fiberwise_beyond_old_char2_cap(capsys):
    code, doc = run_json(capsys, "count", "--surface", "all", "--p", "2", "--n", "10",
                         "--space", "all", "--method", "fiberwise")
    assert code == 0 and doc["ok"]
    code, formula = run_json(capsys, "count", "--surface", "all", "--p", "2", "--n", "10",
                             "--space", "all", "--method", "formula")
    assert code == 0
    assert [r["count"] for r in doc["records"]] == [r["count"] for r in formula["records"]]


def test_count_fiberwise_at_degree_40(capsys):
    # q = 2^40 < 2^63; this used to be refused with "extension degree 40 outside 1..24"
    argv = ("count", "--surface", "all", "--p", "2", "--n", "40", "--space", "all")
    code, doc = run_json(capsys, *argv, "--method", "fiberwise")
    assert code == 0 and doc["ok"]
    code, formula = run_json(capsys, *argv, "--method", "formula")
    assert code == 0
    assert [r["count"] for r in doc["records"]] == [r["count"] for r in formula["records"]]


def test_count_formula_nonaffine(capsys):
    code, doc = run_json(capsys, "count", "--surface", "L2", "--p", "3",
                         "--space", "nonaffine", "--method", "formula")
    assert code == 0
    assert doc["records"][0]["count"] == 8


def test_count_reports_a_disagreement_after_its_space(capsys, monkeypatch):
    # a fiberwise affine count one too high makes that space disagree, and
    # that space alone
    fiberwise_totals = fibercount.fiberwise_totals

    def off_by_one(model, field):
        t = fiberwise_totals(model, field)
        return charzeta.CountTotals(t.surface, t.p, t.n, t.biprojective, t.affine + 1,
                                    t.nonaffine)

    monkeypatch.setattr(fibercount, "fiberwise_totals", off_by_one)
    code, doc = run_json(capsys, "count", "--surface", "L0", "--p", "5", "--space", "all",
                         "--method", "all")
    assert code == 1 and doc["ok"] is False
    records = doc["records"]
    assert len(records) == 10
    assert [(r["space"], r["method"]) for r in records[:3]] == [
        ("affine", "brute"), ("affine", "fiberwise"), ("affine", "formula")]
    affine = records[0]["count"]
    assert records[3] == {"surface": "L0", "space": "affine",
                          "disagreement": {"brute": affine, "fiberwise": affine + 1,
                                           "formula": affine}}
    assert all("disagreement" not in r for r in records[4:])


def test_count_formula_reads_the_global_product(capsys, monkeypatch):
    # the formula counts are evaluated on the Euler factors of the global
    # products, so a wrong Euler factor makes them disagree with the others
    def wrong(expr, p):
        return LocalZetaFactors.from_dict(p, {p: 1})

    monkeypatch.setattr(globalzeta, "euler_factor", wrong)
    code, doc = run_json(capsys, "count", "--surface", "L2", "--p", "3", "--space", "biprojective",
                         "--method", "all")
    assert code == 1 and doc["ok"] is False
    assert doc["records"][-1] == {"surface": "L2", "space": "biprojective",
                                  "disagreement": {"brute": 19, "fiberwise": 19, "formula": 3}}


# stdout SHA-256 of count calls in each format, so that any change to the
# counting paths prints the same bytes; the json ones equal
# bench/reference.json's
COUNT_STDOUT_SHA256 = [
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "all",
                  "--p", "2", "--n", "4"),
                 "c128bcbd32b1a470479126ab33ef0fad7b5afad9d215f59958e6ad5891366eb3", id="2^4"),
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "all",
                  "--p", "3", "--n", "3"),
                 "23586c48f4cecd5554f0608f806005ebaf263387e14b60fa36be2d9154599822", id="3^3"),
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "all",
                  "--p", "11", "--n", "1"),
                 "2a611d78a926626dc18a7e0dcd012244e8256c094406f47df982a062d55f079f", id="11"),
    pytest.param(("count", "--surface", "L1", "--space", "all", "--method", "all",
                  "--p", "5", "--n", "2", "--format", "csv"),
                 "fb5ea2a6d11fc830e30505e4df74a062afcd2f7c303513f6537364c8ce6896b5", id="csv"),
    pytest.param(("count", "--surface", "L0", "--space", "all", "--method", "all",
                  "--p", "7", "--format", "text"),
                 "b1b12f0516b74bcb666172f2292cf495d2f8f83e3a7b715c43dfafe5e682f37c", id="text"),
    # the descent alone, where its fibers are read in the residue fields F_{p^2}
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "fiberwise",
                  "--p", "2", "--n", "11"),
                 "c97f59c0838ded30ac10afa3b7e448cc67c1e157530f8e09285c5090cc73ce7f", id="fiberwise-2^11"),
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "fiberwise",
                  "--p", "3", "--n", "12"),
                 "26efb5a5be553afd677ac6cb80f487aed6205584054df7208f5bb61e46bc1c95", id="fiberwise-3^12"),
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "fiberwise",
                  "--p", "7", "--n", "7"),
                 "08eb14a4a7d0a510d349e0425a4638292f94092868714d71a4e1b0ef315a6e8f", id="fiberwise-7^7"),
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "fiberwise",
                  "--p", "101", "--n", "3"),
                 "eac8e73f39bb06eee410d563d5147cce8a9cd75d9f1e57a17ef7f00b5cf2663f", id="fiberwise-101^3"),
    pytest.param(("count", "--surface", "all", "--space", "all", "--method", "fiberwise",
                  "--p", "3037000493", "--n", "2"),
                 "a8575d9fb04d2ae5c07cc1ffc4c5510a0cd10b2d42477f8158ae50834ec2992d", id="fiberwise-3037000493^2"),
]


@pytest.mark.parametrize("argv, digest", COUNT_STDOUT_SHA256)
def test_count_stdout_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout SHA-256 of the commands whose csv rows flatten nested records:
# dicts into dotted columns, lists into JSON cells
CSV_STDOUT_SHA256 = [
    pytest.param(("verify", "--surface", "all", "--primes", "2..13", "--format", "csv"),
                 "c5ee9301cfc7e4b7651cd2bec8a870807d67497db4839656fd2cada77c09db26", id="verify"),
    pytest.param(("zeta", "--surface", "all", "--p", "3", "--format", "csv"),
                 "ae6a4153d11c9a39af18eb4c1f4cb42c61e765cf129dda9721984fa55a71b48a", id="zeta-3"),
    pytest.param(("zeta", "--surface", "all", "--p", "5", "--format", "csv"),
                 "9a2ced1432e7045675376f2f71457dcd9ad3dee13beb32a3f7879f202a6c07cb", id="zeta-5"),
    pytest.param(("singular", "--surface", "all", "--p", "3", "--n", "2", "--format", "csv"),
                 "48ef7ba9f27a70820f81dcef1f2ac41c5cecf75e20c9eb383952bf5c7486bfc5", id="singular-3^2"),
]


@pytest.mark.parametrize("argv, digest", CSV_STDOUT_SHA256)
def test_csv_stdout_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def csv_and_json_records(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    _, doc = run_json(capsys, *argv)
    assert len(rows) == len(doc["records"])
    return zip(rows, doc["records"])


def test_csv_flattens_nested_records(capsys):
    # a nested dict's leaves are dotted columns, None an empty cell, and a
    # list one cell of JSON
    for row, rec in csv_and_json_records(capsys, "verify", "--surface", "L0", "--primes", "2..5"):
        check = rec["fiberwise_vs_formula"]
        assert row["fiberwise_vs_formula.pass"] == str(check["pass"])
        assert row["fiberwise_vs_formula.first_mismatch_n"] == ""
        for space, item in rec["spaces"].items():
            assert row[f"spaces.{space}.pass"] == str(item["pass"])
            assert json.loads(row[f"spaces.{space}.euler.factors"]) == item["euler"]["factors"]
            if rec["mode"] == "recovered":
                assert json.loads(row[f"spaces.{space}.recovered.factors"]) == \
                    item["recovered"]["factors"]
            else:
                assert row[f"spaces.{space}.checked_n"] == str(item["checked_n"]) == "14"
    for row, rec in csv_and_json_records(capsys, "zeta", "--surface", "all", "--p", "3"):
        assert json.loads(row["euler.factors"]) == rec["euler"]["factors"]
        assert json.loads(row["counts"]) == rec["counts"]
    for row, rec in csv_and_json_records(capsys, "singular", "--surface", "all", "--p", "3",
                                         "--n", "2"):
        assert json.loads(row["points"]) == rec["points"]
        assert json.loads(row["field.modulus"]) == rec["field"]["modulus"] == [1, 0, 1]
        assert row["count"] == str(rec["count"])


@pytest.mark.parametrize("argv", [["special", "--surface", "L0"],
                                  ["mahler", "--surface", "L2", "--samples", "10"]])
def test_special_and_mahler_refuse_surface(capsys, argv):
    # special spans all three surfaces and mahler none, so --surface would be
    # ignored
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_zeta_command_recovered(capsys):
    code, doc = run_json(capsys, "zeta", "--surface", "L0", "--p", "2",
                         "--space", "biprojective")
    assert code == 0 and doc["ok"]
    rec = doc["records"][0]
    assert rec["mode"] == "recovered"
    assert rec["recovered"]["factors"] == [
        {"exp": 1, "unit": 4}, {"exp": 3, "unit": 2}, {"exp": 1, "unit": 1}]
    assert rec["match"]


def test_zeta_command_series_mode(capsys):
    code, doc = run_json(capsys, "zeta", "--surface", "L1", "--p", "5")
    assert code == 0
    rec = doc["records"][0]
    assert rec["mode"] == "series"
    assert rec["euler"]["factors"] == [
        {"exp": 1, "unit": 25}, {"exp": 6, "unit": 5}, {"exp": 1, "unit": 1}]
    assert len(rec["counts"]) == 14
    assert rec["match"] is True


@pytest.mark.parametrize("p,space", [("1000003", "biprojective"), ("5", "nonaffine"),
                                     ("2", "nonaffine")])
def test_zeta_counts_do_not_come_from_the_closed_form(capsys, monkeypatch, p, space):
    # a wrong Euler factor must not pass: the counts have to disagree with it
    def wrong(*args):
        return LocalZetaFactors.from_dict(int(p), {int(p): 1})

    monkeypatch.setattr(globalzeta, "euler_factor", wrong)
    for sid in ("L0", "L1", "L2"):
        assert not globalzeta.check_local_zeta(sid, int(p))["spaces"][space]["pass"]
    code, doc = run_json(capsys, "zeta", "--surface", "all", "--p", p, "--space", space)
    assert code == 1 and not doc["ok"]
    assert [rec["match"] for rec in doc["records"]] == [False] * 3


def test_failed_recovery_is_reported_not_raised(capsys, monkeypatch):
    # N_1 one too high in the affine and biprojective counts at p = 3 fits no
    # local zeta function: the RecoveryError becomes those spaces' error, and
    # the non-affine counts, their difference, still pass
    descent_series = fibercount.descent_series

    def bumped(model, p, k):
        series = descent_series(model, p, k)
        if p == 3:
            t = series[0]
            series[0] = charzeta.CountTotals(t.surface, t.p, t.n, t.biprojective + 1,
                                             t.affine + 1, t.nonaffine)
        return series

    monkeypatch.setattr(fibercount, "descent_series", bumped)
    record = globalzeta.check_local_zeta("L0", 3)
    for space in ("affine", "biprojective"):
        item = record["spaces"][space]
        assert item["recovered"] is None and item["pass"] is False
        assert item["error"] == "non-integer exponent 11521/11520 for unit 9"
    assert record["spaces"]["nonaffine"]["pass"] is True
    assert record["fiberwise_vs_formula"] == {"pass": False, "first_mismatch_n": 1}
    assert record["pass"] is False
    code, doc = run_json(capsys, "zeta", "--surface", "L0", "--p", "3")
    assert code == 1 and not doc["ok"]
    assert doc["records"][0]["recovered"] is None and doc["records"][0]["match"] is False


def test_zeta_l2_p3(capsys):
    code, doc = run_json(capsys, "zeta", "--surface", "L2", "--p", "3")
    assert code == 0
    assert doc["records"][0]["euler"]["factors"] == [
        {"exp": 1, "unit": 9}, {"exp": 3, "unit": 3}, {"exp": 1, "unit": 1}]


def test_verify_command(capsys):
    code, doc = run_json(capsys, "verify", "--surface", "L2", "--primes", "2..13")
    assert code == 0 and doc["ok"]
    assert [r["p"] for r in doc["records"]] == [2, 3, 5, 7, 11, 13]


# stdout SHA-256 of verify and zeta calls, so that any change to the
# per-prime checks prints the same bytes
ZETA_STDOUT_SHA256 = [
    pytest.param(("verify", "--surface", "all", "--primes", "2..31"),
                 "0e0028776bf8f8cb4aa8449548d664f14ab6b193e9f82fb6799f4f8bc23c31dc", id="verify"),
    # the README command, as printed before verify took one descent series
    # per surface and prime and before the indented emitter
    pytest.param(("verify", "--surface", "all", "--primes", "2..199"),
                 "73ad449a75eb0a35db065f981f72ed143646a8e032418d56ba2cd6a7631688d3",
                 id="verify-199"),
    # 430 primes and their degree-2 closed points, as printed before the
    # descent tallied its fibers by class and F_{p^2} took closed forms
    pytest.param(("verify", "--surface", "all", "--primes", "2..3000"),
                 "df2c990450a42832c103c66c5ba856c146c60689d93ae5964623f00a6df4f2e8",
                 id="verify-3000"),
    pytest.param(("zeta", "--surface", "all", "--p", "5", "--space", "affine"),
                 "1e49806b2a5e6d5796161c442db327d18a393c17a5f4b5691cbd8b61c68e9883", id="zeta-5"),
    pytest.param(("zeta", "--surface", "all", "--p", "2"),
                 "525ea5cfcdc1f4a621b2d299dd2a51d31a95f20ef150d7cfa44afb5ee593afa1", id="zeta-2"),
    pytest.param(("zeta", "--surface", "all", "--p", "3", "--space", "affine"),
                 "3873a6520868b6b5c20d30c87919521b71124f636e0cc866d8922b0a5fd4efaa", id="zeta-3-affine"),
    pytest.param(("zeta", "--surface", "all", "--p", "3", "--space", "biprojective"),
                 "6b9c4af161ab5454cd2081c89e3cbf1bac97065997898672cd5979f9c2aaf1cd", id="zeta-3-biprojective"),
    pytest.param(("zeta", "--surface", "all", "--p", "3", "--space", "nonaffine"),
                 "66bacfd676960450e8a448565a7e08f31e2c87160ce3103d43bb475138d5664f", id="zeta-3-nonaffine"),
    pytest.param(("zeta", "--surface", "all", "--p", "7", "--space", "affine"),
                 "b04f42fd7cf0c951bc6ef1be7de09b5e681a11e3876b455091cd659e367bf854", id="zeta-7-affine"),
    pytest.param(("zeta", "--surface", "all", "--p", "7", "--space", "biprojective"),
                 "851c9a3acf60cf522258c0145c36a0502d5e03c2a025907197d70f609b882a01", id="zeta-7-biprojective"),
    pytest.param(("zeta", "--surface", "all", "--p", "7", "--space", "nonaffine"),
                 "934c40bf673ccdd4c0ebea47d30cc337c740c790f8877171f64f081452019b08", id="zeta-7-nonaffine"),
]


@pytest.mark.parametrize("argv, digest", ZETA_STDOUT_SHA256)
def test_zeta_and_verify_stdout_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the compact, key-sorted JSON of verify --surface all --primes
# 2..31 as printed while a second, per-prime transcription of the closed
# forms was compared too, with the closed_form_match it added to each space
# item (true everywhere) removed
_VERIFY_BEFORE_ONE_TRANSCRIPTION = (
    "fe2e070a46702057aa37f9fd0a3768074e4ae7ed022d7873f249fc3d9523dac6")


def test_verify_document_lost_only_the_second_transcription(capsys):
    _, doc = run_json(capsys, "verify", "--surface", "all", "--primes", "2..31")
    assert all("closed_form_match" not in item
               for r in doc["records"] for item in r["spaces"].values())
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _VERIFY_BEFORE_ONE_TRANSCRIPTION


def test_verify_takes_one_series_per_surface_and_prime(capsys, monkeypatch):
    # each (surface, p) reads the descent once for all three spaces, and each
    # space's Euler factor implies its counts once; at p = 2 and 3 recovery
    # also regenerates the counts once from the factors it recovers
    calls = {"series": 0, "counts": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fibercount, "descent_series",
                        counting("series", fibercount.descent_series))
    monkeypatch.setattr(LocalZetaFactors, "counts", counting("counts", LocalZetaFactors.counts))
    code, doc = run_json(capsys, "verify", "--surface", "all", "--primes", "2..199")
    assert code == 0 and len(doc["records"]) == 3 * 46
    assert calls["series"] == 3 * 46
    assert calls["counts"] == 3 * 46 * 3 + 3 * 2 * 3


_JSON_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e300, float("nan"),
                                                       float("inf"), float("-inf")]))
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**200, 2**200), _JSON_FLOATS,
                         st.text())
_JSON_DOCS = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)), max_leaves=20)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_JSON_DOCS)
@example({"\u00e9\u2603\U0001f600": ["\x00\x1f\x7f\n\"\\", {}, [], [[]], {"": {}}]})
@example([-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf"), 2**200, -2**200,
          True, False, None])
def test_emitter_writes_what_indented_json_writes(doc):
    assert cli._emit(doc, "json") == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["count", "--p", "3", "--n", "2", "--space", "all"],
    ["zeta", "--p", "2"],
    ["verify", "--primes", "2..13"],
    ["singular", "--p", "5", "--n", "2"],
    ["special"],
    ["mahler", "--samples", "1000", "--seed", "7"],
], ids=lambda argv: argv[0])
def test_each_command_document_is_emitted_as_indented_json(argv):
    args = build_parser().parse_args(argv)
    doc, _ = args.func(args)
    assert cli._emit(doc, "json") == json.dumps(doc, indent=2, sort_keys=True)


def test_special_command(capsys):
    code, doc = run_json(capsys, "special", "--tol", "1e-6")
    assert code == 0 and doc["ok"]
    assert len(doc["records"]) == 9


def test_singular_command(capsys):
    code, doc = run_json(capsys, "singular", "--surface", "L1", "--p", "5", "--n", "1")
    assert code == 0
    assert doc["records"][0]["count"] == 8


# SHA-256 of the stdout of singular --surface all --p P --n N, as printed when
# the singular locus was found by enumerating all of P^2 x P^1
_SINGULAR_SHA256 = {
    (2, 4): "18e9909a81f547c3e9ac77f6fc0f9ad9694fbbcffc91d1ed1a40da8f3defa772",
    (3, 3): "078695780401721bf44822e344d1122379f03a0be1564f6987399653fb648a29",
    (31, 1): "d03d824b522ad0f33e28b02809ff20c4f32f37ad3eaec1473ba8e09861f1eca7",
    (5, 3): "7329f004b02f55be12c180b60dc5ae36ce861fa8496559043b0c24647d27b3a9",
    (127, 1): "db039a0454c22df70becfbbba75f4dc92f96d04c1b7df48539c2f2b5b18538e4",
    (2, 7): "2ab81645fc98bf921bd63a817bde8e39bd3dec5b7320a0a0c78cd2202815aced",
    # degree-2 closed points split over F_q at odd p
    (3, 4): "1742c7bf2b0f1ffb81acd273b4712786e521fe4bbce56ec73b5d453571732c65",
    (13, 2): "51782d683d255e414e99b04ed927abc79e213e4ed8e9eb3d495f9293f9eeb729",
}


def test_singular_stdout_is_pinned(capsys):
    for (p, n), digest in _SINGULAR_SHA256.items():
        code, out = run(capsys, "singular", "--surface", "all", "--p", str(p), "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (p, n)


BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_reference_invocations_pass_the_bench_check(capsys, monkeypatch):
    # every invocation whose records bench/reference.json holds, in process,
    # must pass the benchmark's own output check; of the mahler seeds only 7
    # runs, as the others take the same path with 10^7 samples each
    monkeypatch.syspath_prepend(BENCH_DIR)
    import checks
    import workloads
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = json.load(fh)["records"]
    invocations = [inv for inv in workloads.reference_invocations()
                   if inv.argv[0] != "mahler" or inv.argv[-1] == "7"]
    assert len(invocations) == 63
    failures = {}
    for inv in invocations:
        code, out = run(capsys, *inv.argv)
        reason = checks.check_output(code, out.encode(), inv.expect, reference)
        if reason is not None:
            failures[" ".join(inv.argv)] = reason
    assert failures == {}


def test_bench_tracer_runs_a_command(tmp_path):
    # bench/tracer.py imports every charzeta module it times and wraps the
    # IntPoly class, so a module or name it looks up must not leave src/
    out = tmp_path / "trace.json"
    res = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "tracer.py"), str(out),
                          "singular", "--surface", "L0", "--p", "3"],
                         env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    stats = json.loads(out.read_text())["stats"]
    assert "fibercount.singular_locus" in stats


def test_traffic_check_reports_every_module():
    # tools/traffic.py runs the command traced and lists, per module, the
    # lines it did not run: singular never loads the independent count
    tool = os.path.join(os.path.dirname(BENCH_DIR), "tools", "traffic.py")
    res = subprocess.run([sys.executable, tool, "singular --surface L0 --p 3"],
                         env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    first, *lines = res.stdout.splitlines()
    assert first == "exit 0: singular --surface L0 --p 3"
    unrun = {}
    for line in lines:
        name, missing, total = re.match(r"src/charzeta/(\w+\.py): (\d+) of (\d+) lines not run",
                                        line).groups()
        unrun[name] = (int(missing), int(total))
    package = os.path.dirname(os.path.abspath(charzeta.__file__))
    assert set(unrun) == {name for name in os.listdir(package) if name.endswith(".py")}
    assert unrun["varieties.py"][0] == unrun["varieties.py"][1]
    assert 0 < unrun["fibercount.py"][0] < unrun["fibercount.py"][1]


def test_singular_splits_the_degenerate_locus_once(capsys, monkeypatch):
    # the record's degenerate_fibers and singular_locus share one split of
    # each closed point of degree 2 of the degenerate locus mod 3 (L2 has none)
    quadratics = {"L0": [(1, 0, 1)], "L1": [(2, 1, 1), (2, 2, 1)]}
    splits = []
    split_roots = fibercount.split_roots

    def counting_split_roots(f, field):
        splits.append(tuple(f))
        return split_roots(f, field)

    monkeypatch.setattr(fibercount, "split_roots", counting_split_roots)
    fibercount._degenerate_fibers.cache_clear()
    for sid, want in quadratics.items():
        splits.clear()
        code, doc = run_json(capsys, "singular", "--surface", sid, "--p", "3", "--n", "4")
        assert code == 0 and doc["records"][0]["degenerate_fibers"]
        assert [f for f in splits if f in want] == want, sid


def test_verify_never_runs_cantor_zassenhaus(capsys, monkeypatch):
    # every quadratic factor over Q of the three surfaces' loci splits
    # directly, at p = 2 too, and what is left of each locus is a unit, so
    # no descent of verify's calls low_degree_factors
    calls = []
    low_degree_factors = fibercount.low_degree_factors

    def counting_low_degree_factors(f, p):
        calls.append((tuple(f), p))
        return low_degree_factors(f, p)

    monkeypatch.setattr(fibercount, "low_degree_factors", counting_low_degree_factors)
    code, doc = run_json(capsys, "verify", "--surface", "all", "--primes", "2..199")
    assert code == 0 and len(doc["records"]) == 3 * 46
    assert calls == []
    # z^3 - 2 is irreducible over Q, so it is a rest and reaches it
    assert fibercount._locus_factors([-2, 0, 0, 1], 2) == ([0], [])
    assert calls == [((-2, 0, 0, 1), 2)]


def test_singular_beyond_the_old_cap(capsys):
    # the degenerate fibers reach the largest prime below 2^63 at n = 1 and
    # below 2^31.5 at n = 2
    for p, n in [(9223372036854775783, 1), (3037000493, 2)]:
        code, doc = run_json(capsys, "singular", "--p", str(p), "--n", str(n))
        assert code == 0
        field = finfield.make_field(p, n)
        for rec in doc["records"]:
            want = sorted(expected_singular_points(rec["surface"], field),
                          key=lambda pt: (pt.zw, pt.xyu))
            assert rec["points"] == [pt.to_json() for pt in want], (p, n, rec["surface"])
    # whole singular lines, in characteristic 2, are listed up to q = 2^11;
    # beyond it the command is refused before it lists anything
    start = time.perf_counter()
    assert main(["singular", "--p", "2", "--n", "12"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "whole singular lines" in capsys.readouterr().err


def test_mahler_command_deterministic(capsys):
    code1, out1 = run(capsys, "mahler", "--samples", "50000", "--seed", "42")
    code2, out2 = run(capsys, "mahler", "--samples", "50000", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2  # bit-identical output for identical invocations


def test_mahler_accepts_samples_up_to_the_cap():
    # parsed only: the cap itself takes seconds to run
    args = build_parser().parse_args(["mahler", "--samples", str(MAX_MAHLER_SAMPLES)])
    assert args.samples == MAX_MAHLER_SAMPLES


@pytest.mark.parametrize("samples", [str(MAX_MAHLER_SAMPLES + 1), "0", "-1", str(10**15)])
def test_mahler_rejects_samples_outside_range(capsys, samples):
    assert_usage_error(capsys, "mahler", "--samples", samples)


def test_mahler_rejects_negative_seed_naming_the_flag(capsys):
    # numpy used to refuse it with a message that named no flag
    assert main(["mahler", "--samples", "10", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seed: must be non-negative" in err
    assert build_parser().parse_args(["mahler", "--seed", "0"]).seed == 0


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("argv", [
    pytest.param(("mahler", "--samples", "1"), id="mahler-one-sample"),
    pytest.param(("mahler", "--samples", "2", "--poly", "1"), id="mahler-constant"),
    pytest.param(("special",), id="special"),
    pytest.param(("count", "--p", "3", "--n", "2", "--space", "all"), id="count"),
    pytest.param(("verify", "--primes", "2..7"), id="verify"),
    pytest.param(("zeta", "--surface", "L1", "--p", "5"), id="zeta"),
    pytest.param(("singular", "--surface", "L0", "--p", "3"), id="singular"),
])
def test_stdout_is_strict_json(capsys, argv):
    # mahler --samples 1 used to print "stderr": Infinity
    main(list(argv))
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    if argv[0] == "mahler" and argv[2] == "1":
        assert doc["records"][0]["stderr"] is None


def test_usage_error_exit_code(capsys):
    assert main(["count", "--surface", "L9", "--p", "7"]) == 2
    assert main(["count", "--surface", "L0", "--p", "4"]) == 2  # non-prime
    assert main(["verify", "--primes", "abc"]) == 2


def test_csv_format(capsys):
    code, out = run(capsys, "count", "--surface", "L0", "--p", "3",
                    "--space", "biprojective", "--method", "formula",
                    "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert "count" in header.split(",")
    assert "25" in row.split(",")


def test_text_format(capsys):
    code, out = run(capsys, "special", "--format", "text")
    assert code == 0
    assert out.startswith("# special")
    assert "ok: True" in out


def test_prime_range_parsing(capsys):
    code, doc = run_json(capsys, "verify", "--surface", "L2", "--primes", "13")
    assert code == 0
    assert [r["p"] for r in doc["records"]] == [13]


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"main() still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_usage_error(capsys, *argv):
    with time_limit(10):
        assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("p", ["1", "0", "-3", "9"])
def test_zeta_rejects_non_prime(capsys, p):
    # p = 1 and p = 0 used to loop forever in the series budget
    assert_usage_error(capsys, "zeta", "--surface", "L0", "--p", p)


def test_zeta_rejects_primes_without_f_p2(capsys):
    # fiberwise counts at even n need F_{p^2}, and fields stop at 2^63; this
    # prime used to pass with every count taken from the closed formula
    assert_usage_error(capsys, "zeta", "--surface", "all", "--p", "2305843009213693951")


@pytest.mark.parametrize("n", ["64", "1000000000"])
def test_count_rejects_fields_beyond_2_63(capsys, n):
    # p >= 2 bounds n by 63, checked before p^n is formed
    assert_usage_error(capsys, "count", "--p", "2", "--n", n, "--method", "formula")


def test_count_finds_a_cubic_modulus_past_the_binomials(capsys):
    # 999983 = 2 mod 3, so no x^3 + c is irreducible; the modulus search
    # used to test all p of them first, for over 100 s
    with time_limit(10):
        code, doc = run_json(capsys, "count", "--method", "formula", "--p", "999983", "--n", "3")
    assert code == 0 and doc["ok"]
    assert doc["field"]["modulus"] == [4, 1, 0, 1]


@pytest.mark.parametrize("spec", ["200..100", "24..28", "0..1"])
def test_verify_rejects_empty_prime_range(capsys, spec):
    # an empty prime list used to report ok: true
    assert_usage_error(capsys, "verify", "--surface", "L2", "--primes", spec)


@pytest.mark.parametrize("spec", [f"2..{MAX_VERIFY_PRIME + 1}", "999983..1000003",
                                  "1000003", f"2..{10**12}"])
def test_verify_rejects_primes_beyond_fiberwise_budget(capsys, spec):
    # the range end bounds the size of a verify input
    assert_usage_error(capsys, "verify", "--surface", "L2", "--primes", spec)


def test_verify_builds_no_field_beyond_p_squared(capsys, monkeypatch, fresh_descent):
    # every Field constructed, the residue fields of closed points included;
    # a fresh make_field cache builds again the fields earlier tests cached
    built = set()
    init = finfield.Field.__init__

    def recording_init(self, p, n=1, modulus=None):
        built.add((p, n))
        init(self, p, n, modulus)

    monkeypatch.setattr(finfield.Field, "__init__", recording_init)
    fresh_make_field = functools.lru_cache(maxsize=None)(lambda p, n=1: finfield.Field(p, n))
    for module in (finfield, fibercount, globalzeta, cli):
        if hasattr(module, "make_field"):
            monkeypatch.setattr(module, "make_field", fresh_make_field)
    code, _ = run_json(capsys, "verify", "--surface", "all", "--primes", "2..199")
    assert code == 0
    assert {n for _, n in built} == {1, 2}


BAD_TOLERANCES = ["-1", "0", "nan", "inf", "-inf"]


@pytest.mark.parametrize("command,tol",
                         [pytest.param("special", t, id=t) for t in BAD_TOLERANCES]
                         + [pytest.param("mahler", t, id=f"mahler:{t}") for t in BAD_TOLERANCES])
def test_special_rejects_bad_tolerance(capsys, command, tol):
    # a negative tolerance used to fail every check with exit 1, and an
    # infinite one to pass every check
    assert_usage_error(capsys, command, "--tol", tol)


# Flag values for the CLI fuzz: valid, boundary and junk.  None leaves the
# flag out, so its default applies; --primes and --samples are always
# given, as their defaults (2..199, 10^6 samples) would be the costliest
# runs.  Valid runs stay cheap: q <= 13^2, verify up to 13, 1000 samples.
_FUZZ_P = (None, "0", "1", "4", "-3", "2", "3", "13", str(2**63 + 29), "x", "3.5")
_FUZZ_N = (None, "-1", "0", "1", "2", "64")
_FUZZ_SURFACE = (None, "L0", "L2", "all", "L9")
_FUZZ_SPACE = (None, "affine", "biprojective", "nonaffine", "all", "x")
_FUZZ_TOL = (None, "nan", "0", "inf", "1e-6", "-1", "x")
_FUZZ_FLAGS = {
    "count": {"--surface": _FUZZ_SURFACE, "--p": _FUZZ_P, "--n": _FUZZ_N, "--space": _FUZZ_SPACE,
              "--method": (None, "brute", "fiberwise", "formula", "all", "x")},
    "zeta": {"--surface": _FUZZ_SURFACE, "--p": _FUZZ_P, "--space": _FUZZ_SPACE},
    "verify": {"--surface": _FUZZ_SURFACE,
               "--primes": ("2..13", "7..5", "..", "3..", "1000000..1000003", "13", "x")},
    "special": {"--tol": _FUZZ_TOL},
    "singular": {"--surface": _FUZZ_SURFACE, "--p": _FUZZ_P, "--n": _FUZZ_N},
    "mahler": {"--poly": (None, "1+x+y+z", "1", "x"),
               "--samples": ("0", "1", "1000", str(10**8 + 1), "x"),
               "--seed": (None, "0", "42", "-1", "x"), "--tol": _FUZZ_TOL},
}


@pytest.mark.parametrize("command", sorted(_FUZZ_FLAGS))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(command, data):
    # every command, in process, on any mix of these values: a result
    # (0 or 1) or a usage error (2) with nothing on stdout, within the limit
    argv = [command]
    formats = (None, "json", "csv", "text", "xml")
    for flag, values in {**_FUZZ_FLAGS[command], "--format": formats}.items():
        value = data.draw(st.sampled_from(values), label=flag)
        if value is not None:
            argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), time_limit(10):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert code != 2 or out.getvalue() == "", argv


@pytest.mark.parametrize("p", ["2", "3", "13", "1009"])
def test_zeta_and_verify_give_one_verdict(capsys, p):
    _, verify = run_json(capsys, "verify", "--surface", "all", "--primes", p)
    items = {(r["surface"], space): item for r in verify["records"]
             for space, item in r["spaces"].items()}
    for space in ("affine", "biprojective", "nonaffine"):
        _, zeta = run_json(capsys, "zeta", "--surface", "all", "--p", p, "--space", space)
        for rec in zeta["records"]:
            item = items[rec["surface"], space]
            for key in ("euler", "recovered", "first_mismatch_n"):
                assert rec.get(key) == item.get(key), (rec["surface"], space, key)
            assert rec["match"] == item["pass"]


# Runs in a fresh interpreter.  A finder first on sys.meta_path records the
# phase and thread of every lookup of numpy, which happens only while numpy
# is not yet loaded.
_COLD_START = """
import contextlib, io, json, sys, threading

class Watch:
    phase = "import"
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append([self.phase, threading.current_thread().name])

seen, watch = [], Watch()
sys.meta_path.insert(0, watch)
import charzeta, charzeta.cli
codes = {}

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[" ".join(argv)] = charzeta.cli.main(list(argv))

watch.phase = "commands"
run("verify", "--primes", "2..30")
run("zeta", "--p", "3")
run("special")
run("count", "--p", "5", "--method", "fiberwise")
run("count", "--p", "5", "--method", "formula")
run("count", "--p", "3", "--n", "2", "--method", "brute")
run("count", "--p", "2", "--n", "3")
after_commands = "numpy" in sys.modules
watch.phase = "mahler"
mahler = [x.hex() for x in charzeta.mahler_measure_mc("1+x+y+z", 300_000, 7)]
print(json.dumps({"seen": seen, "codes": codes, "after_commands": after_commands,
                  "mahler": mahler}))
"""


def test_closed_stdout_exits_quietly_with_its_own_status():
    # `verify ... | head -c 10`: the output (about 238 kB) outgrows the pipe,
    # so writing it fails once the reader has gone; that used to print a
    # traceback and exit 1, the status of a mathematical mismatch
    with subprocess.Popen([sys.executable, "-m", "charzeta.cli", "verify", "--primes", "2..199"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env()) as proc:
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")


def test_numpy_loads_only_where_arrays_are_built():
    doc = run_fresh(_COLD_START)
    assert set(doc["codes"].values()) == {0}
    # verify, zeta, special and the counts by every method run on Python
    # integers and floats alone
    assert not doc["after_commands"]
    # the Mahler Monte Carlo loads numpy on the calling thread before its
    # pool starts, and its value does not depend on who loaded numpy
    assert doc["seen"] == [["mahler", "MainThread"]]
    assert doc["mahler"] == [x.hex() for x in mahler_measure_mc("1+x+y+z", 300_000, 7)]


# Runs in a fresh interpreter, where mahler is the first to load numpy.  The
# threads of mahler's pool are joined, but the kernel may list one for a
# moment after it exits, so the task count is polled for up to 2 s; an
# OpenBLAS pool never exits, and keeps the count above 1 throughout.
_BLAS_THREADS = """
import contextlib, io, json, os, sys, time
import charzeta.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = charzeta.cli.main(["mahler", "--samples", "1000", "--tol", "1"])
deadline = time.monotonic() + 2.0
while (tasks := len(os.listdir("/proc/self/task"))) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "var": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_runs_openblas_on_one_thread_unless_told_otherwise():
    # charzeta makes no BLAS call, so the pool OpenBLAS starts with numpy
    # would only idle; a value the user set still wins
    doc = run_fresh(_BLAS_THREADS, OPENBLAS_NUM_THREADS=None)
    assert doc == {"code": 0, "numpy": True, "var": "1", "tasks": 1}
    doc = run_fresh(_BLAS_THREADS, OPENBLAS_NUM_THREADS="2")
    assert (doc["code"], doc["numpy"], doc["var"]) == (0, True, "2")


# Runs in a fresh interpreter: the charzeta modules one command leaves loaded,
# and which of some standard library modules it does not need.
_LOADED = """
import contextlib, io, json, sys
import charzeta.cli
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    code = charzeta.cli.main(argv) if argv else 0
print(json.dumps({{"code": code, "modules": sorted(name for name in sys.modules
                                                 if name.startswith("charzeta.")),
                  "stdlib": sorted(name for name in ("csv", "dataclasses", "decimal",
                                                     "fractions", "inspect")
                                   if name in sys.modules),
                  "numpy": "numpy" in sys.modules}}))
"""

_FIELD_MODULES = {"cli", "finfield", "intpoly", "surfaces", "fibercount"}
_ZETA_MODULES = {"globalzeta", "localzeta"}


@pytest.mark.parametrize("argv, modules", [
    pytest.param([], {"cli"}, id="import"),
    pytest.param(["mahler", "--samples", "1000", "--tol", "1"], {"cli", "specialvalues"}, id="mahler"),
    pytest.param(["special"], {"cli", "specialvalues", "globalzeta", "localzeta"}, id="special"),
    pytest.param(["count", "--p", "3"], _FIELD_MODULES | _ZETA_MODULES | {"varieties"},
                 id="count"),
    pytest.param(["count", "--p", "3", "--method", "fiberwise"], _FIELD_MODULES,
                 id="count-fiberwise"),
    pytest.param(["count", "--p", "3", "--method", "formula"], _FIELD_MODULES | _ZETA_MODULES,
                 id="count-formula"),
    pytest.param(["count", "--p", "3", "--method", "formula", "--format", "csv"],
                 _FIELD_MODULES | _ZETA_MODULES, id="count-formula-csv"),
    pytest.param(["singular", "--p", "3"], _FIELD_MODULES, id="singular"),
    pytest.param(["verify", "--primes", "2..5"], _FIELD_MODULES | _ZETA_MODULES, id="verify"),
    pytest.param(["zeta", "--p", "5"], _FIELD_MODULES | _ZETA_MODULES, id="zeta"),
])
def test_each_command_loads_only_its_modules(argv, modules):
    # a cold call compiles and runs every module it imports, so the package
    # and the CLI import each module where it is first used
    doc = run_fresh(_LOADED.format(argv=argv))
    assert (doc["code"], doc["modules"]) == (0, sorted(f"charzeta.{name}" for name in modules))
    # nor standard library modules it does not run: the records load no
    # dataclasses (which brings inspect and ast), only --format csv loads
    # csv, and no command loads fractions, nor the decimal it brings (the
    # Bernoulli table is floats); numpy loads inspect itself
    stdlib = set(doc["stdlib"]) - ({"inspect"} if doc["numpy"] else set())
    assert stdlib == ({"csv"} if "csv" in argv else set())
    # numpy loads only with the Mahler sampler: no count, brute force
    # included, loads it
    assert doc["numpy"] == ("mahler" in argv)
