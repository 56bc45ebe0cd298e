"""CLI contract: golden files, determinism, exit codes."""

import builtins
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta, timezone
from itertools import chain, repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwkit import cli, logmatrix, serialize
from iwkit.config import is_odd_prime, residue_digits_limit
from iwkit.logmatrix import FrobeniusData, WedgeTower, index_sets
from iwkit.padic import mat_det, padic_matrix

from conftest import ip_character, ip_mul, ip_phi

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCEN = ROOT / "scenarios"
GROWTH_RANK_ONE = json.loads((SCEN / "growth_rank_one.json").read_text())


def invoke(*args):
    """Run ``iwkit.cli.main(args)`` in this process, as ``python -m iwkit``
    would in a child, and return the CompletedProcess it would have given.
    stdout and stderr are captured for the call.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse exits on bad arguments
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run(*args, expect=0):
    """Run the CLI in this process (see ``invoke``) and return its stdout."""
    proc = invoke(*args)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc.stdout


def run_child(*args, expect=0):
    """Run ``python -m iwkit`` in a child process and return its stdout.

    The child inherits the caller's environment, so ``PYTHONPATH`` and the
    like still find the package.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "iwkit", *args],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc.stdout


class TestGolden:
    def test_wprep_p5(self):
        out = run("--no-timestamp", "wprep", str(SCEN / "series_wprep_p5.json"))
        assert out == (GOLDEN / "wprep_p5.csv").read_text()

    def test_wprep_large_lambda(self):
        # lambda = 48 divides by P in blocks through its reciprocal; made by
        # the row-by-row long division, it must keep the same bytes
        out = run("--no-timestamp", "wprep",
                  str(SCEN / "series_wprep_large_lambda.json"))
        assert out == (GOLDEN / "wprep_large_lambda.csv").read_text()

    def test_tower_mu(self):
        out = run("--no-timestamp", "--n-max", "3", "tower",
                  str(SCEN / "module_mu.json"))
        assert out == (GOLDEN / "tower_mu.csv").read_text()

    def test_tower_high_level(self):
        # made by the long division of omega_n's exact binomials (about
        # 70 s); the repeated p-th powers must give the same bytes
        out = run("--no-timestamp", "--n-max", "9", "tower",
                  str(SCEN / "tower_high_level.json"))
        assert out == (GOLDEN / "tower_high_level.csv").read_text()

    def test_growth_rank_one(self):
        out = run("--no-timestamp", "growth", str(SCEN / "growth_rank_one.json"))
        assert out == (GOLDEN / "growth_rank_one.csv").read_text()

    def test_growth_two_cofactors_mu(self):
        # 3 * Phi_1 * Phi_2 * (X + 3) absorbs both summands: one summand
        # with two relations and mu = 1; made by the p^n x p^n brute force
        out = run("--no-timestamp", "growth",
                  str(SCEN / "growth_two_cofactors_mu.json"))
        assert out == (GOLDEN / "growth_two_cofactors_mu.csv").read_text()

    def test_logmatrix_json(self):
        # the one golden run through a real ``python -m iwkit`` child
        out = run_child("--no-timestamp", "--format", "json", "logmatrix",
                        str(SCEN / "frobenius_elliptic.json"), "--n", "2",
                        "--minors")
        assert out == (GOLDEN / "logmatrix_n2.json").read_text()

    def test_logmatrix_g3(self):
        # g = 3 runs the 20 x 20 minor table and the character row; made by
        # the kernel that unpacked every entry at every step, the packed
        # word must give the same bytes
        out = run("--no-timestamp", "--format", "json", "logmatrix",
                  str(SCEN / "frobenius_g3_p3.json"), "--n", "3", "--minors",
                  "--col-values", str(SCEN / "colvalues_g3_p3.json"),
                  "--theta-level", "2")
        assert out == (GOLDEN / "logmatrix_g3.json").read_text()


class TestDeterminism:
    def test_byte_identical_reruns(self):
        args = ("--no-timestamp", "growth", str(SCEN / "growth_rank_one.json"))
        assert run(*args) == run(*args)

    def test_timestamp_fields_only_without_flag(self):
        with_ts = run("growth", str(SCEN / "growth_trivial.json"))
        without = run("--no-timestamp", "growth", str(SCEN / "growth_trivial.json"))
        assert "timestamp" in with_ts and "timestamp" not in without


class TestManifestDigestAndClock:
    """The manifest's SHA-256 comes from CPython's built-in module and its
    timestamp from ``time``; both must equal what hashlib and datetime
    give."""

    @given(data=st.binary(max_size=6000), cut=st.integers(0, 6000))
    @example(data=b"", cut=0)
    @example(data=b"\x00", cut=1)
    @example(data=bytes(range(256)) * 20, cut=2900)
    @settings(max_examples=60, deadline=None)
    def test_digest_equals_hashlib(self, data, cut):
        # a col-values run feeds its two files to one object in turn
        one, two = cli._sha256(), cli._sha256()
        one.update(data)
        two.update(data[:cut])
        two.update(data[cut:])
        want = hashlib.sha256(data).hexdigest()
        assert one.hexdigest() == want and two.hexdigest() == want

    @given(seconds=st.integers(0, 2**32), micros=st.integers(0, 999_999))
    @example(seconds=0, micros=0)
    @example(seconds=1_700_000_000, micros=0)
    @example(seconds=2**32, micros=999_999)
    @settings(max_examples=200, deadline=None)
    def test_timestamp_text_equals_datetime(self, seconds, micros):
        want = datetime.fromtimestamp(seconds, timezone.utc).replace(
            microsecond=micros).isoformat()
        assert cli._utc_isoformat(seconds, micros) == want

    def test_printed_timestamp_is_utc_now(self):
        out = run("growth", str(SCEN / "growth_trivial.json"))
        text = re.search(r'^# timestamp="([^"]+)"$', out, re.M).group(1)
        stamp = datetime.fromisoformat(text)
        assert stamp.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - stamp) < timedelta(seconds=60)


class TestWprep:
    def test_values_in_report(self):
        out = run("--no-timestamp", "wprep", str(SCEN / "series_wprep_p5.json"))
        assert "mu,0" in out
        assert "lambda,2" in out
        assert "distinguished,5;0;1" in out

    def test_simple_inputs(self, tmp_path):
        f = tmp_path / "xp.json"
        f.write_text(json.dumps({"prime": 3, "precision": 24,
                                 "coeffs": ["3", "1"]}))
        out = run("--no-timestamp", "wprep", str(f))
        assert "mu,0" in out and "lambda,1" in out
        g = tmp_path / "punit.json"
        g.write_text(json.dumps({"prime": 3, "precision": 24,
                                 "coeffs": ["3", "3"]}))
        out = run("--no-timestamp", "wprep", str(g))
        assert "mu,1" in out and "lambda,0" in out

    def test_zeros_past_the_cap_accepted(self, tmp_path):
        # the cap bounds the nonzero terms a file gives, not its length
        f = tmp_path / "padded.json"
        f.write_text(json.dumps({"prime": 3, "precision": 24,
                                 "coeffs": ["3", "1"] + ["0"] * 6}))
        out = run("--no-timestamp", "--n-max", "1", "--degree-cap", "3",
                  "wprep", str(f))
        assert '"degree_cap": 3' in out
        assert "\nlambda,1\n" in out and "\nresidual_window_degree,0\n" in out

    def test_zero_series_exits_2(self, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text(json.dumps({"prime": 3, "precision": 24, "coeffs": ["0"]}))
        run("--no-timestamp", "wprep", str(f), expect=2)

    def test_precision_exhaustion_exits_3(self, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text(json.dumps({"prime": 3, "precision": 6,
                                 "coeffs": [str(3**5)]}))
        run("--no-timestamp", "--margin", "4", "wprep", str(f), expect=3)


class TestTower:
    def test_mu_module_column(self):
        out = run("--no-timestamp", "--n-max", "3", "tower",
                  str(SCEN / "module_mu.json"))
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [r.split(",")[3] for r in rows] == ["2", "6", "18"]

    def test_phi1_stabilizes_at_2(self):
        out = run("--no-timestamp", "--n-max", "3", "tower",
                  str(SCEN / "module_phi1.json"))
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert rows[1].split(",")[3] == "2"
        assert rows[2].split(",")[3] == "2"

    def test_high_level_answers_without_a_window(self, tmp_path):
        # --n-max 30 sets the default cap 3^30 + 8, and nothing of that size
        # is laid out: Phi_1 is presented on (Z/p^N)[X]/(Phi_1) at every
        # level, and the rows are the closed form lambda = 2, mu = 0
        f = tmp_path / "phi1.json"
        f.write_text(json.dumps({"prime": 3, "generators": [{"phi": 1}]}))
        out = run("--no-timestamp", "--n-max", "30", "tower", str(f))
        assert f'"degree_cap": {3**30 + 8}' in out
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert rows == ["1,2,0,,2,"] + [f"{n},2,0,2,2,true"
                                        for n in range(2, 31)]

    def test_empty_module_zeros(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"prime": 3, "generators": []}))
        out = run("--no-timestamp", "--n-max", "2", "tower", str(f))
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert all(r.split(",")[1:4] == ["0", "0", "0"] for r in rows)

    def test_all_undefined_exits_4(self, tmp_path):
        f = tmp_path / "jump.json"
        f.write_text(json.dumps({"prime": 3, "generators": [{"phi": 1}]}))
        run("--no-timestamp", "--n-max", "1", "tower", str(f), expect=4)

    def test_mu_leaving_no_digits_exits_3(self, tmp_path):
        # mu = 20 of 24 digits: the lambda/mu scan refuses like wprep does
        f = tmp_path / "deep.json"
        f.write_text(json.dumps({"prime": 3, "generators": [
            {"p_power": 20}, {"phi": 1}]}))
        proc = invoke("--no-timestamp", "tower", str(f))
        assert proc.returncode == 3
        assert "mu = 20 leaves fewer than margin+1 = 5 digits" in proc.stderr

    def test_mu_refusal_follows_margin(self, tmp_path):
        # the lambda/mu scan refuses at the run's margin, not at 4
        f = tmp_path / "deep.json"
        f.write_text(json.dumps({"prime": 3, "generators": [
            {"p_power": 20}, {"phi": 1}]}))
        out = run("--no-timestamp", "--margin", "2", "--n-max", "2", "tower",
                  str(f))
        assert "mu,20" in out and "2,2,180,122,122,true" in out

    def test_p7_mu_generator(self, tmp_path):
        # 7 * (7 + X + 2 X^3) beside Phi_1 at n_max = 4: presented as
        # 7 * (3 x 3) instead of a 2401 x 2401 object matrix
        f = tmp_path / "mu7.json"
        f.write_text(json.dumps({"prime": 7, "generators": [
            {"prime": 7, "precision": 24, "coeffs": ["49", "7", "0", "14"]},
            {"phi": 1}]}))
        out = run("--no-timestamp", "--n-max", "4", "tower", str(f))
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [r.split(",")[3:] for r in rows] == [
            ["", "13", ""], ["49", "49", "true"], ["301", "301", "true"],
            ["2065", "2065", "true"]]


@st.composite
def tower_lifts(draw):
    """(p, n_max, N, k, generators, lifts): 1-2 integer polynomials known
    mod p^N, and the same polynomials with every coefficient moved by a
    random multiple of p^N, known mod p^(N+k).  Some generators are
    Phi_1 * g, a free direction at every level n >= 1; their lift moves
    either g (the direction stays free) or the product's coefficients.  k
    is at most the default margin 4, so an elementary divisor that reads
    p^N (free) at N and changes under the lift lands in the refusal band
    at N + k."""
    p = draw(st.sampled_from([3, 5, 7]))
    n_max, n, k = draw(st.integers(1, 3)), draw(st.integers(6, 14)), \
        draw(st.integers(1, 4))
    q = p**n
    coeff = st.one_of(st.integers(1, q - 1),
                      st.builds(lambda u, e: u * p**e, st.integers(1, p - 1),
                                st.integers(0, n - 1)))

    def lift(g):
        return [c + q * draw(st.integers(0, p**(k + 1))) for c in g]

    gens, lifts = [], []
    for g in draw(st.lists(st.lists(coeff, min_size=1, max_size=4),
                           min_size=1, max_size=2)):
        shape = draw(st.sampled_from(["g", "phi1*lift(g)", "lift(phi1*g)"]))
        if shape == "g":
            gens.append(g)
            lifts.append(lift(g))
        else:
            f = ip_mul(g, ip_phi(p, 1))
            gens.append(f)
            lifts.append(ip_mul(lift(g), ip_phi(p, 1))
                         if shape == "phi1*lift(g)" else lift(f))
    return p, n_max, n, k, gens, lifts


@settings(max_examples=100, deadline=None)
@given(case=tower_lifts())
def test_tower_answers_survive_a_lift(tmp_path_factory, case):
    """Every reported digit of `tower` stands for all lifts of its input: a
    run at N and a run on lifted coefficients at N + k both answer (exit 0
    or 4) with the same key-value block and rows, or one of them refuses
    (exit 2 or 3)."""
    p, n_max, n, k, gens, lifts = case
    runs = []
    for prec, polys in [(n, gens), (n + k, lifts)]:
        f = tmp_path_factory.mktemp("lift") / "module.json"
        f.write_text(json.dumps({"prime": p, "generators": [
            {"prime": p, "precision": prec, "coeffs": [str(c) for c in g]}
            for g in polys]}))
        proc = invoke("--no-timestamp", "--precision", str(prec),
                      "--n-max", str(n_max), "tower", str(f))
        body = [line for line in proc.stdout.splitlines()
                if not line.startswith("#")]
        runs.append((proc.returncode, body))
    (code, body), (lifted_code, lifted_body) = runs
    if code in (0, 4) and lifted_code in (0, 4):
        assert (code, body) == (lifted_code, lifted_body)
    else:
        assert {code, lifted_code} <= {0, 2, 3, 4}, runs


class TestGrowth:
    def test_all_bundled_scenarios_pass(self):
        for name in ("growth_rank_one.json", "growth_pure_mu.json",
                     "growth_trivial.json"):
            run("--no-timestamp", "growth", str(SCEN / name))

    def test_manifest_records_the_scenario_n_max(self, tmp_path):
        # the scenario's n_max = 4 is computed, so --n-max 2 changes nothing
        out = run("--no-timestamp", "--n-max", "2", "growth",
                  str(SCEN / "growth_rank_one.json"))
        assert out == (GOLDEN / "growth_rank_one.csv").read_text()
        # without one, --n-max sets the levels, the manifest and the cap
        scn = json.loads((SCEN / "growth_rank_one.json").read_text())
        del scn["n_max"], scn["expected"]
        f = tmp_path / "no_n_max.json"
        f.write_text(json.dumps(scn))
        body = json.loads(run("--no-timestamp", "--format", "json",
                              "--n-max", "2", "growth", str(f)))
        assert body["manifest"]["config"]["n_max"] == 2
        assert body["manifest"]["config"]["degree_cap"] == 3**2 + 8
        assert [row["n"] for row in body["rows"]] == [0, 1, 2]

    def test_expected_mismatch_exits_5(self, tmp_path):
        scn = json.loads((SCEN / "growth_pure_mu.json").read_text())
        scn["expected"] = [2, 6, 18, 53]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(scn))
        run("--no-timestamp", "growth", str(f), expect=5)

    @pytest.mark.parametrize("scn", [
        # n_max <= n0 = 1: no level has a prediction
        {**{k: v for k, v in GROWTH_RANK_ONE.items() if k != "expected"},
         "n_max": 1},
        # Phi_1 Phi_2 with Phi_1 embedded: levels 2 and 3 have positive rank,
        # so they have no observed increment
        {"selmer": {"prime": 3, "generators": [
            {"prime": 3, "precision": 24,
             "coeffs": [str(c) for c in ip_mul(ip_phi(3, 1), ip_phi(3, 2))]}]},
         "mw_shape": [1], "n_max": 3},
        # no level is finite
        {"selmer": {"prime": 3, "generators": [{"phi": 1}]}, "mw_shape": [],
         "n_max": 2},
    ], ids=["no prediction", "no increment", "no finite level"])
    def test_undefined_top_level_exits_4(self, tmp_path, scn):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(scn))
        run("--no-timestamp", "growth", str(f), expect=4)


class TestLogmatrix:
    def test_elliptic_diagonal_entries(self):
        out = run("--no-timestamp", "--format", "json", "logmatrix",
                  str(SCEN / "frobenius_elliptic.json"), "--n", "2")
        body = json.loads(out)
        ent = {(r["i"], r["j"]): r["coeffs"] for r in body["rows"]}
        q = 3**24
        assert ent[(1, 1)] == [str(q - 3), str(q - 3), str(q - 1)]
        assert ent[(1, 2)] == ["0"]
        assert ent[(2, 1)] == ["0"]

    def test_empty_col_values_names_a_file(self):
        """``--col-values ""`` is refused as a file that cannot be read, not
        taken for a missing flag that ``--theta-level`` needs."""
        proc = invoke("--no-timestamp", "logmatrix",
                      str(SCEN / "frobenius_elliptic.json"), "--n", "2",
                      "--theta-level", "1", "--col-values", "")
        assert proc.returncode == 2 and "cannot read" in proc.stderr

    def test_identity_n1(self, tmp_path):
        f = tmp_path / "id.json"
        f.write_text(json.dumps({"g": 1, "prime": 3,
                                 "matrix": [["1", "0"], ["0", "1"]]}))
        out = run("--no-timestamp", "--format", "json", "logmatrix", str(f),
                  "--n", "1")
        body = json.loads(out)
        ent = {(r["i"], r["j"]): r["coeffs"] for r in body["rows"]}
        assert ent[(1, 1)] == ["1"]
        assert ent[(2, 2)] == ["3", "3", "1"]  # Phi_1

    def test_character_condition(self):
        out = run("--no-timestamp", "logmatrix",
                  str(SCEN / "frobenius_elliptic.json"), "--n", "2",
                  "--theta-level", "2", "--col-values",
                  str(SCEN / "colvalues_units.json"))
        assert "character_nonzero,true" in out
        assert "character_min_valuation,0" in out

    @pytest.mark.parametrize("g,n", [(1, 5), (2, 3)])
    def test_character_below_n_needs_no_cap(self, tmp_path, g, n):
        # --n-max 1 reads the column values at the default cap 3 + 8, far
        # below the minors' degree g (3^n - 1): the character is exact
        # anyway, and no level is checked against that cap
        if g == 1:
            frob, cols = (SCEN / "frobenius_elliptic.json",
                          SCEN / "colvalues_units.json")
        else:
            frob = _frobenius_file(tmp_path / "frob.json", g)
            cols = _col_values_file(tmp_path / "cols.json", g)
        rows = [[int(x) for x in r]
                for r in json.loads(frob.read_text())["matrix"]]
        coeffs = [[int(x) for x in c["coeffs"]]
                  for c in json.loads(cols.read_text()).values()]
        for theta in range(3):
            out = json.loads(run(
                "--no-timestamp", "--format", "json", "--n-max", "1",
                "logmatrix", str(frob), "--n", str(n), "--col-values",
                str(cols), "--theta-level", str(theta)))["report"]
            assert (out["character_nonzero"],
                    out["character_min_valuation"]) == ip_character(
                        rows, g, 3, 24, n, coeffs, theta), theta

    @pytest.mark.parametrize("n,theta", [(5, 5), (2, 10)],
                             ids=["--theta-level 5", "--theta-level 10"])
    def test_theta_level_past_the_degree_cap_answers(self, n, theta):
        # deg Phi_theta (162 at theta = 5, 39366 at 10) exceeds the default
        # cap 3^4 + 8: the character has no cap, and the run answers as the
        # oracle does (at theta = n as the run without --theta-level does)
        frob = SCEN / "frobenius_elliptic.json"
        rows = [[int(x) for x in r]
                for r in json.loads(frob.read_text())["matrix"]]
        coeffs = [[int(x) for x in c["coeffs"]]
                  for c in json.loads(Path(COLVALUES).read_text()).values()]
        argv = ["--no-timestamp", "--format", "json", "logmatrix", str(frob),
                "--n", str(n), "--col-values", COLVALUES]
        out = json.loads(run(*argv, "--theta-level", str(theta)))["report"]
        got = (out["character_nonzero"], out["character_min_valuation"])
        assert got == ip_character(rows, 1, 3, 24, n, coeffs, theta)
        if theta == n:
            default = json.loads(run(*argv))["report"]
            assert got == (default["character_nonzero"],
                           default["character_min_valuation"]) == (True, 0)

    def test_minors_peak_memory_within_6x_report(self):
        # each printed coefficient exists as one string at a time, and the
        # tower's tables are freed before the report is formatted
        tracemalloc.start()
        try:
            proc = invoke("--no-timestamp", "--format", "json", "logmatrix",
                          str(SCEN / "frobenius_g3_p3.json"), "--n", "4",
                          "--minors")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proc.returncode == 0, proc.stderr
        assert peak <= 6 * len(proc.stdout), (peak, len(proc.stdout))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_peak_memory_within_2_5x_report(self, monkeypatch, fmt):
        # the report's final newline is joined in, not appended to a
        # finished copy of the whole report
        real, seen = cli._emit, {}

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            text = real(*args, **kwargs)
            seen["peak"] = tracemalloc.get_traced_memory()[1] - before
            return text

        monkeypatch.setattr(cli, "_emit", traced)
        tracemalloc.start()
        try:
            proc = invoke("--no-timestamp", "--format", fmt, "logmatrix",
                          str(SCEN / "frobenius_g3_p3.json"), "--n", "4",
                          "--minors")
        finally:
            tracemalloc.stop()
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\n") and not proc.stdout.endswith("\n\n")
        assert seen["peak"] <= 2.5 * len(proc.stdout), \
            (seen["peak"], len(proc.stdout))

    def test_csv_minors_equal_json(self, tmp_path):
        # the CSV report has no golden file: each minor_I|J cell must be the
        # JSON report's string, zero tail and all-zero minors included
        anti = tmp_path / "anti_g2.json"
        anti.write_text(json.dumps({"g": 2, "prime": 3, "matrix": [
            ["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
            ["1", "0", "0", "0"], ["0", "1", "0", "0"]]}))
        cells = {}
        for frob in (anti, _frobenius_file(tmp_path / "g2.json", 2),
                     SCEN / "frobenius_g3_p3.json"):
            argv = ["--no-timestamp", "logmatrix", str(frob), "--n", "2",
                    "--minors"]
            report = json.loads(run("--format", "json", *argv))["report"]
            csv_lines = run("--format", "csv", *argv).splitlines()
            csv = dict(line.rsplit(",", 1) for line in csv_lines
                       if line.startswith("minor_"))
            minor_keys = [k for k in report if k.startswith("minor_")]
            assert sorted(csv) == sorted(minor_keys)
            for key in minor_keys:
                assert csv[key] == report[key], (frob.name, key)
                cells[frob.name, key] = report[key].split(";")
        assert all(c[-1] == "0" for c in cells.values())
        assert any(set(c) == {"0"} for c in cells.values())


def _frobenius_file(path, g, p=3, precision=24):
    """A seeded C_p in GL_{2g}(Z_p), written as a Frobenius input file."""
    rng = random.Random(100 * g + p)
    q = p**precision
    while True:
        rows = [[rng.randrange(q) for _ in range(2 * g)] for _ in range(2 * g)]
        if mat_det(padic_matrix(p, precision, rows)).is_unit():
            break
    path.write_text(json.dumps({"g": g, "prime": p,
                                "matrix": [[str(x) for x in r] for r in rows]}))
    return path


def _col_values_file(path, g, p=3, precision=24):
    """One seeded series of degree <= 8 per g-element index set."""
    rng = random.Random(7 * g + p)
    q = p**precision
    path.write_text(json.dumps({
        ",".join(map(str, s)): {"prime": p, "precision": precision,
                                "coeffs": [str(rng.randrange(q)) for _ in
                                           range(rng.randint(1, 9))]}
        for s in index_sets(g)}))
    return path


LOGMATRIX_FLAGS = {"minors": ["--minors"], "cols": ["--col-values"],
                   "both": ["--minors", "--col-values"]}


def _logmatrix_argv(tmp_path, g, flags, n=2):
    argv = ["--no-timestamp", "--format", "json", "logmatrix",
            str(_frobenius_file(tmp_path / f"frob_g{g}.json", g)), "--n", str(n)]
    for flag in LOGMATRIX_FLAGS[flags]:
        argv.append(flag)
        if flag == "--col-values":
            argv += [str(_col_values_file(tmp_path / f"cols_g{g}.json", g)),
                     "--theta-level", "1"]
    return argv


class TestLogmatrixOneTower:
    """One run shares a WedgeTower between h_n and minors, so each exterior
    power of H_n is built once; the character pushes only its row."""

    @pytest.mark.parametrize("flags", sorted(LOGMATRIX_FLAGS))
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_output_equals_separate_calls(self, tmp_path, monkeypatch, g, flags):
        argv = _logmatrix_argv(tmp_path, g, flags)
        shared = run(*argv)
        for name in ("h_n", "minors"):
            fn = getattr(cli, name)
            # the same call, without the run's tower: built from scratch
            monkeypatch.setattr(cli, name, lambda *a, _fn=fn, tower=None, **kw:
                                _fn(*a, **kw))
        assert run(*argv) == shared

    @pytest.mark.parametrize("flags", sorted(LOGMATRIX_FLAGS))
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_each_power_built_once(self, tmp_path, monkeypatch, g, flags):
        built = []
        build = WedgeTower._build

        def counting(self, r, n, cap):
            built.append(r)
            return build(self, r, n, cap)

        inverses = []
        inverse_rows = logmatrix._inverse_rows
        monkeypatch.setattr(WedgeTower, "_build", counting)
        monkeypatch.setattr(logmatrix, "_inverse_rows",
                            lambda *a: inverses.append(1) or inverse_rows(*a))
        run(*_logmatrix_argv(tmp_path, g, flags))
        # g = 1: the minor table is H_n itself; the character builds no
        # power, only its row
        minors_too = "--minors" in LOGMATRIX_FLAGS[flags]
        assert sorted(built) == sorted({1, g} if minors_too else {1})
        # every power and the character row start from the one C_p^{-1}
        assert len(inverses) == 1

    @pytest.mark.parametrize("tail,message", [
        (["--n", "-1"], "level must be >= 0"),
        (["--n", "0", "--minors"], "level must be >= 1"),
        (["--n", "0", "--col-values", str(SCEN / "colvalues_units.json")],
         "level must be >= 1"),
        (["--col-values", "{tmp}/cols_missing.json"],
         "col-values file misses index set 2"),
        (["--n", "2", "--minors", "--theta-level", "1"],
         "--theta-level needs --col-values"),
    ])
    def test_refusals_unchanged(self, tmp_path, tail, message):
        (tmp_path / "cols_missing.json").write_text(json.dumps(
            {"1": {"prime": 3, "precision": 24, "coeffs": ["1"]}}))
        proc = invoke("--no-timestamp", "logmatrix",
                      str(SCEN / "frobenius_elliptic.json"),
                      *[a.replace("{tmp}", str(tmp_path)) for a in tail])
        assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")

    def test_foreign_columns_refused_before_any_push(self, tmp_path,
                                                     monkeypatch):
        # a column file at p = 5 for a Frobenius matrix at p = 3 exits 2
        # before H_n is built
        def refuse(*args):
            raise AssertionError("pushed before the columns were checked")

        monkeypatch.setattr(WedgeTower, "_push", refuse)
        cols = tmp_path / "cols.json"
        cols.write_text(json.dumps({
            key: {"prime": 5, "precision": 24, "coeffs": ["1"]}
            for key in ("1", "2")}))
        proc = invoke("--no-timestamp", "logmatrix",
                      str(SCEN / "frobenius_elliptic.json"), "--n", "4",
                      "--col-values", str(cols))
        assert (proc.returncode, proc.stderr) == (
            2, "error: column values must be series at p = 3\n")

    def test_g4_minors_refused(self, tmp_path):
        f = tmp_path / "g4.json"
        f.write_text(json.dumps({"g": 4, "prime": 3, "matrix": [
            [str(int(i == j)) for j in range(8)] for i in range(8)]}))
        proc = invoke("--no-timestamp", "logmatrix", str(f), "--minors")
        assert (proc.returncode, proc.stderr) == (
            2, "error: minor tables are limited to g <= 3\n")


class TestRksolve:
    def test_examples(self):
        out = run("--no-timestamp", "rksolve", "2")
        assert "0,2,(2/2)" in out
        out = run("--no-timestamp", "rksolve", "0", "3")
        assert "1,2,(2/3);(3/2)" in out
        out = run("--no-timestamp", "rksolve", "1", "0")
        assert "1,0,(0/0)" in out


class TestConfigPlumbing:
    def test_prime_conflict_exits_2(self):
        run("--no-timestamp", "--prime", "7", "wprep",
            str(SCEN / "series_wprep_p5.json"), expect=2)

    def test_exported_iwkit_config_is_ignored(self, tmp_path, monkeypatch):
        # parameters come from the flags and the input file only: a config
        # file exported as IWKIT_CONFIG, every value off its default, leaves
        # each golden run's bytes as they are, in process and in a child
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prime": 7, "precision": 30, "n_max": 2,
                                   "margin": 1, "output_format": "json"}))
        monkeypatch.setenv("IWKIT_CONFIG", str(cfg))
        golden = TestGolden()
        checks = [getattr(golden, name) for name in dir(golden)
                  if name.startswith("test_")]
        for check in checks:
            check()
        monkeypatch.setitem(globals(), "run", run_child)
        for check in checks:
            check()

    def test_import_leaves_numpy_out(self):
        code = "import sys, iwkit.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=ROOT, check=True)
        assert proc.stdout.strip() == "False"

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.csv"
        run("--no-timestamp", "--out", str(target), "rksolve", "1")
        assert target.read_text().startswith("# command=")


# -- the JSON report writer -------------------------------------------------
#
# a JSON report is exactly json.dumps(report, indent=2, sort_keys=True) and a
# newline, on each supported interpreter's own json module

JSON_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ \ud800😀'),
    st.characters()), max_size=8)
JSON_SCALARS = st.one_of(
    JSON_TEXT, st.integers(), st.integers(-2**100, 2**100), st.booleans(),
    st.none(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))


def json_values(depth):
    """JSON-printable values nested at most ``depth`` deep."""
    if depth == 0:
        return JSON_SCALARS
    inner = json_values(depth - 1)
    return st.one_of(JSON_SCALARS, st.lists(inner, max_size=4),
                     st.lists(inner, max_size=4).map(tuple),
                     st.lists(JSON_TEXT, max_size=4),
                     st.dictionaries(JSON_TEXT, inner, max_size=4))


@settings(max_examples=400, deadline=None)
@given(value=json_values(4))
def test_report_writer_equals_json_dumps(value):
    assert cli._json_text(value) == \
        json.dumps(value, indent=2, sort_keys=True) + "\n"


def _report_runs():
    """Every bundled scenario through every command that reads it, and
    rksolve, each as a pytest param with its argv."""
    cols = {1: SCEN / "colvalues_units.json", 3: SCEN / "colvalues_g3_p3.json"}
    runs = [pytest.param(["rksolve", "0", "3", "1"], id="rksolve")]
    for f in sorted(SCEN.glob("*.json")):
        if f.name.startswith("series_"):
            runs.append(pytest.param(["wprep", str(f)], id=f.name))
        elif f.name.startswith(("module_", "tower_")):
            runs.append(pytest.param(["tower", str(f)], id=f.name))
        elif f.name.startswith("growth_"):
            runs.append(pytest.param(["growth", str(f)], id=f.name))
        elif f.name.startswith("frobenius_"):
            argv = ["logmatrix", str(f), "--n", "2"]
            g = json.loads(f.read_text())["g"]
            runs.append(pytest.param(argv + ["--minors"],
                                     id=f"{f.name} --minors"))
            runs.append(pytest.param(argv + ["--col-values", str(cols[g])],
                                     id=f"{f.name} --col-values"))
    return runs


@pytest.mark.parametrize("argv", _report_runs())
def test_report_writer_pins_every_command(argv):
    text = run("--no-timestamp", "--format", "json", *argv)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _printed(v) -> bool:
    """A str, int, bool or None, or a flat list of them."""
    scalars = (str, int, bool, type(None))
    if type(v) is list:
        return all(type(x) in scalars for x in v)
    return type(v) in scalars


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", _report_runs())
def test_commands_hand_emit_only_printed_values(monkeypatch, argv, fmt):
    """A command returns its report as printed values, so none of the
    towers, tables or series it built is alive while ``main`` formats the
    report."""
    real, seen = cli._emit, []

    def traced(manifest, rows, header, kv=None):
        seen.append((rows, kv))
        return real(manifest, rows, header, kv)

    monkeypatch.setattr(cli, "_emit", traced)
    run("--no-timestamp", "--format", fmt, *argv)
    [(rows, kv)] = seen
    values = [v for row in rows or [] for v in row.values()]
    values += (kv or {}).values()
    assert values and [v for v in values if not _printed(v)] == []


def test_report_writer_minor_strings(tmp_path):
    # each minor_I|J string against the join it replaced, on tables with
    # all-zero minors (block anti-diagonal C_p), minors whose degree reaches
    # a small cap, and residues above 2^64 (p = 11, N = 40)
    anti = FrobeniusData(2, 3, 24, [
        [0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    cases = [(anti, 2, None)]
    # a cap below the minors' degree, but at least deg Phi_n
    for g, p, precision, n, cap in [(2, 11, 40, 1, None), (2, 11, 40, 1, 12),
                                    (3, 3, 24, 2, 6), (1, 5, 24, 1, 4),
                                    (3, 3, 24, 2, None)]:
        path = _frobenius_file(tmp_path / f"frob_{g}_{p}.json", g, p, precision)
        frob = serialize.frobenius_from_dict(json.loads(path.read_text()),
                                             precision=precision)
        cases.append((frob, n, cap))
    seen = set()
    for frob, n, cap in cases:
        table = logmatrix.minors(frob, n, degree_cap=cap)
        want = {}
        for (rows, cols), v in sorted(table.values.items()):
            cs, top = v.coeffs, v.degree_cap
            key = ",".join(map(str, rows)) + "|" + ",".join(map(str, cols))
            want[key] = ";".join(chain(map(str, cs),
                                       repeat("0", top + 1 - len(cs))))
            seen.add("all zero" if not cs else
                     "no tail" if len(cs) == top + 1 else "tail")
            if any(c > 2**64 for c in cs):
                seen.add("above 2^64")
        got = serialize.minor_table_to_dict(table)
        assert list(got.items()) == list(want.items())
    assert seen == {"all zero", "no tail", "tail", "above 2^64"}


FROBENIUS = json.loads((SCEN / "frobenius_elliptic.json").read_text())
WPREP_P5 = json.loads((SCEN / "series_wprep_p5.json").read_text())
COLVALUES = str(SCEN / "colvalues_units.json")

MALFORMED = [
    # (case, input file contents, arguments before the input file)
    ("top-level list", [1, 2], ["wprep"]),
    ("prime not an integer",
     {"prime": "x", "precision": 24, "coeffs": ["3", "1"]}, ["wprep"]),
    ("phi level not an integer",
     {"prime": 3, "generators": [{"phi": "a"}]}, ["tower"]),
    ("generator not an object", {"prime": 3, "generators": [5]}, ["tower"]),
    ("coeffs a string, not a list",
     {"prime": 3, "precision": 24, "coeffs": "31"}, ["wprep"]),
    ("matrix row a string, not a list",
     {"g": 1, "prime": 3, "matrix": ["01", ["1", "0"]]}, ["logmatrix"]),
    ("mw_shape a string, not a list",
     {**GROWTH_RANK_ONE, "mw_shape": "1"}, ["growth"]),
    ("expected a string, not a list",
     {**GROWTH_RANK_ONE, "expected": "1111"}, ["growth"]),
    ("coefficient a non-integral number",
     {"prime": 3, "precision": 24, "coeffs": [3.7, 1]}, ["wprep"]),
    ("coefficient a boolean",
     {"prime": 3, "precision": 24, "coeffs": [True, 1]}, ["wprep"]),
    ("precision a non-integral number",
     {"prime": 3, "precision": 24.5, "coeffs": ["3", "1"]}, ["wprep"]),
    ("n_max a boolean", {**GROWTH_RANK_ONE, "n_max": True}, ["growth"]),
    # the degree is checked before any coefficient of Phi_c is built
    ("Phi_40 generator", {"prime": 3, "generators": [{"phi": 40}]}, ["tower"]),
    ("Phi_10 generator", {"prime": 3, "generators": [{"phi": 10}]}, ["tower"]),
    ("mw_shape level 40", {**GROWTH_RANK_ONE, "mw_shape": [40]}, ["growth"]),
    ("mw_shape level 9", {**GROWTH_RANK_ONE, "mw_shape": [9]}, ["growth"]),
    ("negative --margin", {"prime": 3, "generators": [{"phi": 1}]},
     ["--margin", "-1", "tower"]),
    # 3^40 exceeds sys.maxsize, so the level is refused before anything is
    # pushed
    ("--theta-level 40", FROBENIUS,
     ["logmatrix", "--n", "2", "--theta-level", "40",
      "--col-values", COLVALUES]),
    # a level chooses the character met by the column values: without
    # them it is refused, whatever its value
    ("--theta-level -3 without --col-values", FROBENIUS,
     ["logmatrix", "--n", "2", "--theta-level", "-3"]),
    ("--theta-level 10**30 without --col-values", FROBENIUS,
     ["logmatrix", "--n", "2", "--theta-level", str(10**30)]),
    # an empty --col-values names a file that cannot be read, not no file
    ("--col-values \"\"", FROBENIUS,
     ["logmatrix", "--n", "2", "--col-values", ""]),
    ("--theta-level 1 with --col-values \"\"", FROBENIUS,
     ["logmatrix", "--n", "2", "--theta-level", "1", "--col-values", ""]),
    # a cap above sys.maxsize, which no sequence of coefficients reaches
    ("--n-max 40", {"prime": 3, "generators": [{"phi": 1}]},
     ["--n-max", "40", "tower"]),
    ("--degree-cap 10**30", WPREP_P5, ["--degree-cap", str(10**30), "wprep"]),
    # nonzero terms past the cap are refused, not a wider cap taken
    ("series past --degree-cap",
     {"prime": 3, "precision": 24, "coeffs": ["3", "0", "0", "0", "0", "0",
                                              "1", "5"]},
     ["--n-max", "1", "--degree-cap", "3", "wprep"]),
    # an entry of 3^n coefficients no int can hold: refused before
    # Phi_1..Phi_n
    ("logmatrix --n 40", FROBENIUS, ["logmatrix", "--n", "40"]),
    ("logmatrix --n 39", FROBENIUS, ["logmatrix", "--n", "39"]),
    ("--out into a missing directory",
     {"prime": 3, "precision": 24, "coeffs": ["3", "1"]},
     ["--out", "{tmp}/missing/report.csv", "wprep"]),
    # bytes, written as they are: each fails while the file is decoded
    ("a byte that is not UTF-8",
     b'{"prime": 3, "precision": 24, "coeffs": ["3", "1"]}\xff', ["wprep"]),
    ("an array nested 100,000 deep",
     b'{"prime": 3, "generators": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
     ["tower"]),
    ("a 5,000-digit integer literal",
     b'{"prime": 3, "precision": 24, "coeffs": [' + b"1" * 5000 + b"]}",
     ["wprep"]),
    # primes are not tested by trial division up to their square root: one
    # above sys.maxsize is refused untested, and 10^18 + 9 is found prime at
    # once and refused by its p^n_max
    ("prime 2^89 - 1", {"prime": 2**89 - 1, "generators": [{"phi": 1}]},
     ["tower"]),
    ("prime 10^18 + 9", {"prime": 10**18 + 9, "generators": [{"phi": 1}]},
     ["tower"]),
    # a file that declares no prime conflicts with no --prime: its own
    # parser refuses the missing field
    ("tower file without a prime, --prime 5", {"generators": [{"phi": 1}]},
     ["--prime", "5", "tower"]),
    ("growth file without a prime, --prime 7", {"mw_shape": [1]},
     ["--prime", "7", "growth"]),
]

# the exact stderr of the MALFORMED cases that pin their message
MALFORMED_MESSAGES = {
    "tower file without a prime, --prime 5":
        "error: bad module object: 'prime'\n",
    "growth file without a prime, --prime 7":
        "error: bad scenario object: 'selmer'\n",
}


@pytest.mark.parametrize("case,content,before", MALFORMED,
                         ids=[row[0] for row in MALFORMED])
def test_malformed_input_exits_2(tmp_path, case, content, before):
    f = tmp_path / "input.json"
    if isinstance(content, bytes):
        f.write_bytes(content)
    else:
        f.write_text(json.dumps(content))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in before]
    proc = invoke("--no-timestamp", *argv, str(f))
    assert proc.returncode == 2, proc.stderr or proc.stdout
    if case in MALFORMED_MESSAGES:
        assert proc.stderr == MALFORMED_MESSAGES[case]


def test_primes_decided_exactly(tmp_path):
    """Miller-Rabin to the first twelve prime bases against a sieve, strong
    pseudoprimes to smaller sets of bases, and a prime near 10^18 that
    answers at n_max 0."""
    sieve = [True] * 20_000
    for i in range(2, 142):
        sieve[i * i::i] = [False] * len(range(i * i, 20_000, i))
    assert [n for n in range(-3, 20_000) if is_odd_prime(n)] == \
        [n for n in range(3, 20_000) if sieve[n]]
    # 2047 = 23 * 89 fools base 2, 3215031751 bases 2..7, and
    # 3825123056546413051 bases 2..23
    assert not any(map(is_odd_prime, [2047, 3215031751, 3825123056546413051]))
    assert all(map(is_odd_prime, [2**31 - 1, 2**61 - 1, 10**18 + 9]))
    f = tmp_path / "series.json"
    f.write_text(json.dumps({"prime": 10**18 + 9, "precision": 24,
                             "coeffs": ["3", "1"]}))
    out = run("--no-timestamp", "--n-max", "0", "wprep", str(f))
    assert "\nmu,0\nlambda,0\n" in out


HUGE = 10**12

OVERSIZED = [
    # (case, input file contents or a bundled scenario, arguments before
    # and after the input file): each would compute p^level for a level of
    # 10^12 if the level were not refused from its size alone
    ("--n-max", SCEN / "module_phi1.json", ["--n-max", str(HUGE), "tower"],
     []),
    ("logmatrix --n", SCEN / "frobenius_elliptic.json", ["logmatrix"],
     ["--n", str(HUGE)]),
    ("phi generator", {"prime": 3, "generators": [{"phi": HUGE}]}, ["tower"],
     []),
    ("mw_shape level", {**GROWTH_RANK_ONE, "mw_shape": [HUGE]}, ["growth"],
     []),
    ("--theta-level", SCEN / "frobenius_elliptic.json", ["logmatrix"],
     ["--n", "2", "--theta-level", str(HUGE), "--col-values", COLVALUES]),
]


def _limited_child(tmp_path, content, before, after):
    """``python -m iwkit`` on a bundled scenario or on ``content`` written to
    a file, in a child with a timeout and a 2 GB address-space limit: a run
    that computed p^level or p^N for a huge level or N would hang and then
    fail with MemoryError, and must fail the test, not stall the suite.  The
    child runs at the default digit limit."""
    import resource

    if isinstance(content, Path):
        f = content
    else:
        f = tmp_path / "input.json"
        f.write_text(json.dumps(content))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONINTMAXSTRDIGITS"}
    return subprocess.run(
        [sys.executable, "-m", "iwkit", "--no-timestamp", *before, str(f),
         *after], capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=60, preexec_fn=limit)


@pytest.mark.parametrize("case,content,before,after", OVERSIZED,
                         ids=[row[0] for row in OVERSIZED])
def test_oversized_level_exits_2(tmp_path, case, content, before, after):
    """A level whose p^level exceeds sys.maxsize exits 2 at once."""
    proc = _limited_child(tmp_path, content, before, after)
    assert proc.returncode == 2, proc.stderr or proc.stdout
    assert "sys.maxsize" in proc.stderr


P_POWER = [
    # (case, input, command): 3^m for m = 10^12 would never finish; any
    # m >= N makes the generator 0 mod p^N, which is refused without the
    # power
    ("tower", {"prime": 3, "generators": [{"p_power": HUGE}, {"phi": 1}]},
     "tower"),
    ("growth selmer", {**GROWTH_RANK_ONE, "selmer": {
        "prime": 3, "generators": [{"p_power": HUGE}, {"phi": 1}]}},
     "growth"),
]


@pytest.mark.parametrize("case,content,command", P_POWER,
                         ids=[row[0] for row in P_POWER])
def test_oversized_p_power_exits_2(tmp_path, case, content, command):
    """A p_power generator at or above the precision exits 2 at once, as
    every generator that is 0 mod p^N does."""
    proc = _limited_child(tmp_path, content, [command], [])
    assert proc.returncode == 2, proc.stderr or proc.stdout
    assert proc.stderr == "error: generators must be nonzero mod p^N\n"


OVERSIZED_PRECISION = [
    # (case, input, arguments before and after it): p^N for N = 10^12 would
    # never finish; the residues mod 3^10000 have 4,772 digits, more than
    # str() prints at the default limit of 4,300
    ("--precision 10^12", SCEN / "module_phi1.json",
     ["--precision", str(HUGE), "tower"], []),
    ("--precision 10000", SCEN / "frobenius_elliptic.json",
     ["--precision", "10000", "logmatrix"], ["--n", "1"]),
]


@pytest.mark.parametrize("case,content,before,after", OVERSIZED_PRECISION,
                         ids=[row[0] for row in OVERSIZED_PRECISION])
def test_oversized_precision_exits_2(tmp_path, case, content, before, after):
    """A precision whose residues mod p^N print with more decimal digits
    than the interpreter allows exits 2 at once."""
    proc = _limited_child(tmp_path, content, before, after)
    assert proc.returncode == 2, proc.stderr or proc.stdout
    assert "decimal digits" in proc.stderr


def test_largest_printable_precision_answers_next_exits_2():
    """At p = 3 the largest N whose residues print within the digit limit
    answers, with residues of about that many digits; N + 1 exits 2."""
    limit = residue_digits_limit()
    n = int(limit / math.log10(3))
    while 3 ** (n + 1) <= 10**limit:
        n += 1
    while 3**n > 10**limit:
        n -= 1
    argv = ["logmatrix", str(SCEN / "frobenius_elliptic.json"), "--n", "1"]
    out = run("--no-timestamp", "--precision", str(n), *argv)
    assert limit - 2 <= max(len(t) for t in re.findall(r"\d+", out)) <= limit
    run("--no-timestamp", "--precision", str(n + 1), *argv, expect=2)


@pytest.mark.parametrize("argv", [
    ["wprep", str(SCEN / "series_wprep_p5.json")],
    ["tower", str(SCEN / "module_mu.json")],
    ["growth", str(SCEN / "growth_rank_one.json")],
    ["logmatrix", str(SCEN / "frobenius_elliptic.json"),
     "--col-values", COLVALUES],
], ids=["wprep", "tower", "growth", "logmatrix"])
def test_each_input_file_opened_once(monkeypatch, argv):
    """The manifest's digest hashes the bytes the run parsed: no file is
    read a second time to hash it."""
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *a, **kw:
                        opened.append(str(file)) or real_open(file, *a, **kw))
    run("--no-timestamp", *argv)
    inputs = [a for a in argv if a.endswith(".json")]
    assert sorted(p for p in opened if p in inputs) == sorted(inputs)


# (bundled input, arguments before it, arguments after it): every file in
# scenarios/, the col-values files as the input of a logmatrix run
FUZZ_RUNS = [
    ("series_wprep_p5.json", ["wprep"], []),
    ("series_wprep_large_lambda.json", ["wprep"], []),
    ("module_mu.json", ["tower"], []),
    ("module_phi1.json", ["tower"], []),
    ("tower_high_level.json", ["tower"], []),
    ("growth_pure_mu.json", ["growth"], []),
    ("growth_rank_one.json", ["growth"], []),
    ("growth_trivial.json", ["growth"], []),
    ("growth_two_cofactors_mu.json", ["growth"], []),
    ("frobenius_elliptic.json", ["logmatrix"],
     ["--n", "2", "--minors", "--col-values", COLVALUES]),
    ("frobenius_g3_p3.json", ["logmatrix"],
     ["--n", "1", "--minors", "--col-values",
      str(SCEN / "colvalues_g3_p3.json")]),
    ("colvalues_units.json",
     ["logmatrix", str(SCEN / "frobenius_elliptic.json"), "--n", "2",
      "--col-values"], []),
    ("colvalues_g3_p3.json",
     ["logmatrix", str(SCEN / "frobenius_g3_p3.json"), "--n", "1",
      "--col-values"], []),
]

# small, negative and at least 10^18; never legal but slow, as
# --precision 5000 would be
FUZZ_INTS = st.one_of(st.integers(0, 5), st.integers(max_value=-1),
                      st.integers(min_value=10**18))
FUZZ_VALUES = st.recursive(
    st.one_of(FUZZ_INTS, FUZZ_INTS.map(str), st.floats(), st.booleans(),
              st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["prime", "precision", "coeffs",
                                         "phi", "p_power", "generators"]),
                        inner, max_size=2)),
    max_leaves=4)
FUZZ_FLAGS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--prime", "--precision", "--degree-cap",
                               "--n-max", "--margin"]), FUZZ_INTS.map(str)),
    st.tuples(st.just("--format"), st.sampled_from(["csv", "json"]))),
    max_size=3).map(lambda pairs: [x for pair in pairs for x in pair])


def _paths(node, path=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_runs(draw):
    """(argv, input tree): a bundled input with one node replaced by a drawn
    value or deleted, run with drawn global flags."""
    name, before, after = draw(st.sampled_from(FUZZ_RUNS))
    tree = json.loads((SCEN / name).read_text())
    path = draw(st.sampled_from(list(_paths(tree))))
    delete = bool(path) and draw(st.booleans())
    value = None if delete else draw(FUZZ_VALUES)
    if not path:
        tree = value
    else:
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return ["--no-timestamp", *draw(FUZZ_FLAGS), *before], after, tree


class _Overran(BaseException):
    """Raised by the alarm in a run that outlives its bound; a
    BaseException, so that no handler in iwkit turns it into an exit code."""


FUZZ_SECONDS = 5


@settings(max_examples=80, deadline=None)
@given(case=mutated_runs())
def test_mutated_scenario_exits_with_a_documented_code(tmp_path_factory, case):
    """A bundled input with one field replaced or deleted, under random
    global flags, exits 0, 2, 3, 4 or 5: no traceback, no hang."""
    before, after, tree = case
    f = tmp_path_factory.mktemp("mutated") / "input.json"
    f.write_text(json.dumps(tree))

    def overran(signum, frame):
        raise _Overran(f"over {FUZZ_SECONDS} s: {before} {tree!r} {after}")

    handler = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main([*before, str(f), *after])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert code in (0, 2, 3, 4, 5), (before, tree, after, code)
