"""Command line behaviour: dispatch, exit codes, file formats, golden tables."""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import orbitdesign
import orbitdesign.cli
from orbitdesign import OrbitDesign, kw_check, optimal_design
from orbitdesign.cli import EXIT_BROKEN_PIPE, EXPAND_CHUNK_LINES, main
from orbitdesign.info_matrix import assemble_general
from orbitdesign.moments import design_moments
from orbitdesign.orbits import MAX_ORBIT_POINTS, enumerate_orbit, orbit_size
from orbitdesign.verify import KW_TOL

from conftest import feature_vector
from reference_tables import NARROW_ROWS, WIDE_ROWS


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects malformed options this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_design(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


K6_NARROW_FILE = {
    "k": 6,
    "lower": 2,
    "upper": 4,
    "orbits": [
        {"k": 2, "weight": 0.3865193099186674},
        {"k": 3, "weight": 0.22696138016266519},
        {"k": 4, "weight": 0.3865193099186674},
    ],
}


class TestOptimal:
    def test_narrow_k6(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--k", "6", "--lower", "2")
        assert code == 0
        assert "regime: narrow" in out
        assert "0.38651931" in out and "0.22696138" in out
        assert "D-efficiency = 0.885363" in out
        assert "PASS" in out

    def test_wide_k12_explicit_ell(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal", "--k", "12", "--lower", "3", "--ell", "4"
        )
        assert code == 0
        assert "regime: wide" in out
        assert "0.15000000" in out and "0.03750000" in out and "0.62500000" in out

    def test_threshold_k22(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--k", "22", "--lower", "7")
        assert code == 0
        assert "regime: threshold" in out

    def test_full_factorial_k3(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--k", "3", "--lower", "0")
        assert code == 0
        assert "regime: full-factorial" in out

    def test_single_orbit_region_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "optimal", "--k", "6", "--lower", "3")
        assert code == 3
        assert "single symmetric orbit" in err

    def test_small_k_restricted_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "optimal", "--k", "3", "--lower", "1")
        assert code == 3
        assert "full factorial" in err

    def test_asymmetric_wide(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal", "--k", "6", "--lower", "0", "--upper", "5"
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line.strip() and line.split()[0].isdigit()]
        assert [r[0] for r in rows] == ["1", "3", "5"]

    def test_asymmetric_wide_explicit_ell(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal", "--k", "12", "--lower", "3", "--upper", "10", "--ell", "4"
        )
        assert code == 0
        assert "regime: wide" in out
        assert "0.15000000" in out and "0.03750000" in out and "0.62500000" in out

    def test_asymmetric_narrow_unsupported(self, capsys):
        code, _, err = run_cli(
            capsys, "optimal", "--k", "8", "--lower", "3", "--upper", "6"
        )
        assert code == 3
        assert "asymmetric" in err

    def test_ell_in_narrow_regime_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "optimal", "--k", "6", "--lower", "2", "--ell", "3"
        )
        assert code == 2
        assert "wide regime" in err

    @pytest.mark.parametrize("lower, upper", [(12, 16), (0, 3)])
    def test_one_sided_region_exits_3(self, capsys, lower, upper):
        # The region lies on one side of the centre orbit of K = 16.
        code, out, err = run_cli(
            capsys, "optimal", "--k", "16", "--lower", str(lower), "--upper", str(upper)
        )
        assert code == 3
        assert out == ""
        assert "only wide asymmetric bounds are supported" in err

    def test_ell_for_full_factorial_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "optimal", "--k", "3", "--lower", "0", "--ell", "1")
        assert code == 2
        assert out == ""
        assert "ell does not apply" in err

    @pytest.mark.parametrize("k_factors, lower", [(76, 37), (70, 0)])
    def test_large_k_certifies(self, capsys, k_factors, lower):
        code, out, err = run_cli(
            capsys, "optimal", "--k", str(k_factors), "--lower", str(lower)
        )
        assert code == 0
        assert out.splitlines()[-1].endswith("-> PASS")
        assert err == ""

    def test_large_k_narrow_is_judged_at_the_tolerance(self, capsys):
        # The double w* of K = 4336, L = 2167 leaves max(psi - p) = 1.03e-9:
        # a failed check at the default tolerance, a pass at 1e-8.
        code, out, err = run_cli(capsys, "optimal", "--k", "4336", "--lower", "2167")
        assert code == 4 and err == ""
        assert out.splitlines()[-1].endswith("(tol 1e-09) -> FAIL")
        code, out, err = run_cli(
            capsys, "optimal", "--k", "4336", "--lower", "2167", "--tol", "1e-8"
        )
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith("(tol 1e-08) -> PASS")

    def test_orbit_sizes_beyond_float_range(self, capsys, tmp_path):
        cases = [
            # C(1030, 515) > 1.8e308: the central point weights are subnormal
            # floats, computed without converting the orbit size to a float.
            (1030, 0, [0, 488, 515, 542, 1030]),
            # 2^53 < C(58, 24) < 1.8e308: float / size would round the size
            # first and put orbits 24 and 34 one ulp off.
            (58, 24, [24, 29, 34]),
        ]
        for k_factors, lower, orbits in cases:
            path = tmp_path / f"design{k_factors}.csv"
            code, out, err = run_cli(
                capsys, "optimal", "--k", str(k_factors), "--lower", str(lower),
                "--csv", str(path),
            )
            assert code == 0 and err == ""
            assert out.splitlines()[-1].endswith("-> PASS")
            rows = [
                line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]
            ]
            assert [int(k) for k, *_ in rows] == orbits
            for _, orbit_weight, point_weight, size in rows:
                exact = Fraction(float(orbit_weight)) / int(size)
                assert float(point_weight) == float(exact) > 0

    def test_orbit_sizes_past_the_digit_limit(self, capsys, tmp_path):
        # C(14292, 7146) has more digits than int-to-str conversion allows by
        # default (4,300); the sizes are written in full and the limit is
        # restored afterwards.
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "design.csv"
        code, out, err = run_cli(
            capsys, "optimal", "--k", "14292", "--lower", "0", "--csv", str(path)
        )
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith("-> PASS")
        assert sys.get_int_max_str_digits() == limit
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        sys.set_int_max_str_digits(0)
        try:
            sizes = [int(size) for *_, size in rows]
        finally:
            sys.set_int_max_str_digits(limit)
        assert sizes == [math.comb(14292, int(k)) for k, *_ in rows]
        assert sizes[len(sizes) // 2] > 10**limit  # the central orbit

    def test_tight_tolerance_fails(self, capsys):
        # The certificate is exact; 1e-20 is below its rounding to float.
        code, out, _ = run_cli(capsys, "optimal", "--k", "6", "--lower", "2", "--tol", "1e-20")
        assert code == 4
        assert out.splitlines()[-1].endswith("(tol 1e-20) -> FAIL")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "optimal", "--k", "6", "--lower", "2", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize(
        "k_factors, lower, regime",
        [(12, 1, "wide"), (22, 7, "threshold"), (6, 2, "narrow")],
    )
    def test_certifies_once(self, capsys, monkeypatch, k_factors, lower, regime):
        original = orbitdesign.kw_check
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("orbitdesign") and getattr(module, "kw_check", None) is original:
                monkeypatch.setattr(module, "kw_check", counting)
        code, out, _ = run_cli(
            capsys, "optimal", "--k", str(k_factors), "--lower", str(lower)
        )
        assert code == 0
        assert f"regime: {regime}" in out
        assert len(calls) == 1

    def test_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        code, _, _ = run_cli(
            capsys, "optimal", "--k", "8", "--lower", "3", "--json", str(path)
        )
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"k", "lower", "upper", "orbits"}
        assert payload["k"] == 8 and payload["lower"] == 3 and payload["upper"] == 5
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "PASS" in out

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "design.csv"
        code, _, _ = run_cli(
            capsys, "optimal", "--k", "6", "--lower", "2", "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,orbit_weight,point_weight,orbit_size"
        assert len(lines) == 4
        k, orbit_weight, point_weight, size = lines[1].split(",")
        assert (k, size) == ("2", "15")
        assert float(orbit_weight) == pytest.approx(0.3865193099186674, abs=1e-15)
        assert float(point_weight) == pytest.approx(0.3865193099186674 / 15, abs=1e-16)


# The file optimal --k 6 --lower 2 --json writes: a narrow design has float
# weights, and its file holds them as JSON numbers.
K6_NARROW_WRITTEN = {
    "k": 6,
    "lower": 2,
    "upper": 4,
    "orbits": [
        {"k": 2, "weight": 0.38651930991866734},
        {"k": 3, "weight": 0.22696138016266532},
        {"k": 4, "weight": 0.38651930991866734},
    ],
}


class TestExactDesignFiles:
    """optimal --json writes an exact design's weights as "n/d" strings, and
    verify reads them back as Fractions, so the file keeps the certificate."""

    @pytest.mark.parametrize(
        "k_factors, lower, regime",
        [(12, 3, "wide"), (6, 1, "threshold"), (3, 0, "full-factorial")],
    )
    def test_round_trip_keeps_the_exact_certificate(
        self, capsys, tmp_path, k_factors, lower, regime
    ):
        path = tmp_path / "design.json"
        argv = ["optimal", "--k", str(k_factors), "--lower", str(lower), "--json", str(path)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert f"regime: {regime}" in out
        assert "max(psi - p) = 0.000e+00" in out
        orbits = json.loads(path.read_text(encoding="utf-8"))["orbits"]
        assert all(type(entry["weight"]) is str for entry in orbits)
        weights = {entry["k"]: Fraction(entry["weight"]) for entry in orbits}
        assert weights == optimal_design(k_factors, lower).design.weights()
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        # Every orbit has psi = p exactly, as for the design in memory.
        rows = out.splitlines()[2:-1]
        assert rows and all(row.split()[2] == "0.000e+00" for row in rows)
        assert "max(psi - p) = 0.000e+00" in out

    def test_narrow_file_is_unchanged(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        code, _, _ = run_cli(capsys, "optimal", "--k", "6", "--lower", "2", "--json", str(path))
        assert code == 0
        assert path.read_text(encoding="utf-8") == json.dumps(K6_NARROW_WRITTEN, indent=2) + "\n"

    def test_string_weights_sum_exactly(self, capsys, tmp_path):
        payload = json.loads(json.dumps(K6_NARROW_WRITTEN))
        for entry, weight in zip(payload["orbits"], ("1/2", "1", "1/2")):
            entry["weight"] = weight
        code, _, err = run_cli(capsys, "verify", write_design(tmp_path / "d.json", payload))
        assert code == 2
        assert "orbit weights sum to 2, not 1" in err
        payload["orbits"][1]["weight"] = "1e400"
        code, _, err = run_cli(capsys, "verify", write_design(tmp_path / "d.json", payload))
        assert code == 2
        assert "orbit weights sum to inf, not 1" in err


class TestVerify:
    def test_reference_design_passes(self, capsys, tmp_path):
        path = write_design(tmp_path / "d.json", K6_NARROW_FILE)
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert "PASS" in out

    def test_uniform_design_fails(self, capsys, tmp_path):
        payload = {
            "k": 6,
            "lower": 2,
            "upper": 4,
            "orbits": [
                {"k": 2, "weight": 0.3},
                {"k": 3, "weight": 0.4},
                {"k": 4, "weight": 0.3},
            ],
        }
        path = write_design(tmp_path / "uniform.json", payload)
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 4
        assert "FAIL" in out

    def test_bad_weight_sum_is_parse_error(self, capsys, tmp_path):
        payload = {
            "k": 6,
            "lower": 2,
            "upper": 4,
            "orbits": [{"k": 2, "weight": 0.3}, {"k": 4, "weight": 0.3}],
        }
        path = write_design(tmp_path / "bad.json", payload)
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert "sum" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        payload = dict(K6_NARROW_FILE)
        payload["comment"] = "hello"
        path = write_design(tmp_path / "extra.json", payload)
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert "unknown keys" in err

    def test_orbit_outside_region_rejected(self, capsys, tmp_path):
        payload = {
            "k": 6,
            "lower": 2,
            "upper": 4,
            "orbits": [{"k": 1, "weight": 0.5}, {"k": 3, "weight": 0.5}],
        }
        path = write_design(tmp_path / "outside.json", payload)
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert "outside the region" in err

    def test_asymmetric_design_certified(self, capsys, tmp_path):
        weights = {1: 0.25, 3: 0.5, 4: 0.25}
        payload = {
            "k": 6,
            "lower": 1,
            "upper": 4,
            "orbits": [{"k": k, "weight": w} for k, w in weights.items()],
        }
        path = write_design(tmp_path / "asym.json", payload)
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 4
        assert "FAIL" in out
        psi = {
            int(row[0]): float(row[1])
            for row in map(str.split, out.splitlines())
            if row[0].isdigit()
        }
        inverse = np.linalg.inv(assemble_general(6, design_moments(OrbitDesign(6, weights))).dense)
        assert sorted(psi) == [1, 2, 3, 4]
        for k, value in psi.items():
            f = feature_vector(6, [1] * k + [-1] * (6 - k))
            assert value == pytest.approx(f @ inverse @ f, abs=1e-9)

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tolerance_is_usage_error(self, capsys, tmp_path, tol):
        path = write_design(tmp_path / "d.json", K6_NARROW_FILE)
        code, out, err = run_cli(capsys, "verify", path, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_singular_design_exits_3(self, capsys, tmp_path):
        payload = {
            "k": 6,
            "lower": 0,
            "upper": 6,
            "orbits": [
                {"k": 0, "weight": 0.25},
                {"k": 3, "weight": 0.5},
                {"k": 6, "weight": 0.25},
            ],
        }
        path = write_design(tmp_path / "singular.json", payload)
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 3
        assert "singular" in err

    def test_region_override_must_contain_support(self, capsys, tmp_path):
        path = str(tmp_path / "ff.json")
        code, _, _ = run_cli(capsys, "optimal", "--k", "6", "--lower", "0", "--json", path)
        assert code == 0
        code, out, err = run_cli(capsys, "verify", path, "--lower", "2", "--upper", "4")
        assert code == 2
        assert "PASS" not in out
        assert "outside the region [2, 4]" in err

    def test_region_override_must_be_a_region(self, capsys, tmp_path):
        path = write_design(tmp_path / "d.json", K6_NARROW_FILE)
        code, out, err = run_cli(capsys, "verify", path, "--lower", "4", "--upper", "2")
        assert code == 2 and out == ""
        assert err == "error: need 0 <= lower <= upper <= 6, got lower=4, upper=2\n"

    def test_region_override(self, capsys, tmp_path):
        # Optimal on [2, 4] but not on the full cube: overriding the region
        # must flip the verdict.
        path = write_design(tmp_path / "d.json", K6_NARROW_FILE)
        code, _, _ = run_cli(capsys, "verify", path, "--lower", "0", "--upper", "6")
        assert code == 4


class TestTables:
    def test_narrow_k6_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "narrow", "--k", "6")
        assert code == 0
        assert out.splitlines()[1] == "6 2 3 0.3865 0.2270 0.8854 1.00"

    def test_wide_k4_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "wide", "--k", "4")
        assert code == 0
        assert out.splitlines()[1] == "4 0 1 2 0.0625 0.2500 0.3750 0.42"

    def test_wide_k22_block(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "wide", "--k", "22")
        assert code == 0
        assert len(out.splitlines()) == 1 + 16

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "tables", "--which", "both")
        _, second, _ = run_cli(capsys, "tables", "--which", "both")
        assert first == second

    def test_wide_table_matches_reference(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--which", "wide")
        lines = out.splitlines()[1:]
        assert len(lines) == len(WIDE_ROWS)
        for line, row in zip(lines, WIDE_ROWS):
            k_factors, lower, ell, center, w_low, w_ell, w_center, b_k = row
            cells = line.split()
            assert cells[0] == str(k_factors)
            assert cells[1] == str(lower)
            assert cells[2] == ("-" if ell is None else str(ell))
            assert cells[3] == str(center)
            for cell, value in zip(cells[4:7], (w_low, w_ell, w_center)):
                assert cell == ("-" if value is None else f"{value:.4f}")
            assert cells[7] == f"{b_k:.2f}"

    def test_narrow_table_matches_reference(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--which", "narrow")
        lines = out.splitlines()[1:]
        assert len(lines) == len(NARROW_ROWS)
        for line, row in zip(lines, NARROW_ROWS):
            k_factors, lower, center, w_low, w_center, efficiency, b_k = row
            expected = (
                f"{k_factors} {lower} {center} {w_low:.4f} {w_center:.4f} "
                f"{efficiency:.4f} {b_k:.2f}"
            )
            assert line == expected

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "tables.csv"
        code, out, _ = run_cli(
            capsys, "tables", "--which", "narrow", "--k", "6", "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "6,2,3,0.3865,0.2270,0.8854,1.00"

    def test_k_range_validated(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--k", "3")
        assert code == 2
        assert "4 <= K <= 22" in err


class TestExpand:
    def test_k6_l2_point_count(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--k", "6", "--lower", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,point,point_weight"
        assert len(lines) == 1 + 50
        assert lines[1].startswith("2,++----,")

    def test_k4_l1_central_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--k", "4", "--lower", "1")
        assert code == 0
        central = [line for line in out.splitlines()[1:] if line.startswith("2,")]
        assert len(central) == 6

    def test_rounded_counts(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--k", "6", "--lower", "2", "--n", "100"
        )
        assert code == 0
        lines = out.splitlines()[1:]
        counts = {}
        for line in lines:
            k, _, _, count = line.split(",")
            counts.setdefault(int(k), set()).add(int(count))
        assert counts == {2: {3}, 3: {1}, 4: {3}}
        assert "110" in err and "out of scope" in err

    def test_expand_from_file(self, capsys, tmp_path):
        payload = {
            "k": 4,
            "lower": 1,
            "upper": 3,
            "orbits": [{"k": 1, "weight": 0.5}, {"k": 2, "weight": 0.5}],
        }
        path = write_design(tmp_path / "d.json", payload)
        code, out, _ = run_cli(capsys, "expand", path)
        assert code == 0
        assert len(out.splitlines()) == 1 + 4 + 6

    @pytest.mark.parametrize(
        "option", [["--k", "9"], ["--lower", "2"], ["--upper", "4"], ["--ell", "3"]]
    )
    def test_file_takes_no_region_options(self, capsys, tmp_path, option):
        path = write_design(tmp_path / "d.json", K6_NARROW_FILE)
        code, out, err = run_cli(capsys, "expand", path, *option)
        assert code == 2 and out == ""
        assert err == "error: expand FILE takes no --k, --lower, --upper or --ell\n"

    @pytest.mark.parametrize("n", ["0", "-10"])
    def test_invalid_sample_size_is_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "expand", "--k", "4", "--lower", "1", "--n", n)
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "expand")
        assert code == 2
        assert "--k" in err

    def test_large_k_enumeration_refused(self, capsys, tmp_path):
        csv = tmp_path / "points.csv"
        code, out, err = run_cli(
            capsys, "expand", "--k", "70", "--lower", "0", "--csv", str(csv)
        )
        assert code == 2
        assert out == ""
        assert f"an orbit listing holds at most {MAX_ORBIT_POINTS} points" in err
        assert not csv.exists()

    def test_refusal_past_the_digit_limit(self, capsys):
        # The refused central orbit of K = 15,000 has more digits than str()
        # converts by default; the refusal is still a usage error.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "expand", "--k", "15000", "--lower", "0")
        assert code == 2
        assert out == ""
        assert f"an orbit listing holds at most {MAX_ORBIT_POINTS} points" in err
        assert sys.get_int_max_str_digits() == limit

    def test_large_k_small_orbits_expand(self, capsys, tmp_path):
        # Only the size of the orbits bounds expand, not K.
        payload = {
            "k": 70,
            "lower": 0,
            "upper": 70,
            "orbits": [{"k": 0, "weight": 0.5}, {"k": 70, "weight": 0.5}],
        }
        path = write_design(tmp_path / "d.json", payload)
        code, out, _ = run_cli(capsys, "expand", path)
        assert code == 0
        assert out == f"k,point,point_weight\n0,{'-' * 70},0.5\n70,{'+' * 70},0.5\n"

    def test_output_spanning_chunks(self, capsys, tmp_path):
        # The central orbit of K = 16 holds 12,870 points, more than one
        # chunk; stdout and the CSV must equal the lines joined whole.
        csv = tmp_path / "points.csv"
        code, out, _ = run_cli(
            capsys, "expand", "--k", "16", "--lower", "5", "--n", "10000", "--csv", str(csv)
        )
        assert code == 0
        design = optimal_design(16, 5).design
        assert max(orbit_size(16, k) for k in design.support()) > EXPAND_CHUNK_LINES
        lines = ["k,point,point_weight,count"]
        for k, w in sorted(design.weights().items()):
            weight = float(w) / orbit_size(16, k)
            for x in enumerate_orbit(16, k):
                point = "".join("+" if v == 1 else "-" for v in x)
                lines.append(f"{k},{point},{weight:.17g},{round(10000 * weight)}")
        expected = "\n".join(lines) + "\n"
        assert out == expected
        assert csv.read_text(encoding="utf-8") == expected

    def test_one_sided_region_exits_3(self, capsys):
        # At K = 6 the region [5, 6] holds no design of the wide regime.
        code, out, err = run_cli(capsys, "expand", "--k", "6", "--lower", "5", "--upper", "6")
        assert code == 3
        assert out == ""
        assert "only wide asymmetric bounds are supported" in err


@pytest.mark.parametrize("command", ["verify", "expand"])
@pytest.mark.parametrize(
    "weight",
    [float("nan"), float("inf"), 10**400, "", "abc", "1/0", "-1/3"],
    ids=["nan", "inf", "10**400", "empty-string", "abc", "1/0", "-1/3"],
)
def test_non_finite_weight_rejected(capsys, tmp_path, command, weight):
    payload = json.loads(json.dumps(K6_NARROW_FILE))
    payload["orbits"][0]["weight"] = weight
    # json writes these as NaN, Infinity and a 401-digit integer literal,
    # which json.load accepts; the integer is beyond the float range.  A
    # string weight must parse as a nonnegative rational.
    path = write_design(tmp_path / "d.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert f"design file: invalid weight {weight!r} at k=2" in err


@pytest.mark.parametrize("command", ["verify", "expand"])
@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        # json.load refuses integer literals over 4,300 digits with ValueError.
        b'{"k": 6, "lower": 2, "upper": 4, "orbits": [{"k": 2, "weight": 1' + b"0" * 5000 + b"}]}",
    ],
    ids=["not-utf8", "5001-digit-weight"],
)
def test_unreadable_design_file_rejected(capsys, tmp_path, command, content):
    path = tmp_path / "d.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert "cannot read design file" in err


def k6_file(**changes):
    """K6_NARROW_FILE with some top-level values replaced."""
    return {**json.loads(json.dumps(K6_NARROW_FILE)), **changes}


@pytest.mark.parametrize("command", ["verify", "expand"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ([K6_NARROW_FILE], "design file: must hold a JSON object"),
        (
            {key: K6_NARROW_FILE[key] for key in ("k", "lower", "orbits")},
            "design file: missing keys ['upper']",
        ),
        (k6_file(k=6.0), "design file: k must be an integer"),
        (k6_file(lower=True), "design file: lower must be an integer"),
        (k6_file(upper="4"), "design file: upper must be an integer"),
        (k6_file(orbits=[]), "design file: orbits must be a nonempty list"),
        (k6_file(orbits={"k": 3, "weight": 1}), "design file: orbits must be a nonempty list"),
        (k6_file(orbits=[3]), "design file: each orbit needs exactly the keys 'k' and 'weight'"),
        (
            k6_file(orbits=[{"k": 3}]),
            "design file: each orbit needs exactly the keys 'k' and 'weight'",
        ),
        (
            k6_file(orbits=[{"k": 3, "weight": 1, "note": ""}]),
            "design file: each orbit needs exactly the keys 'k' and 'weight'",
        ),
        (
            k6_file(orbits=[{"k": 3.0, "weight": 1}]),
            "design file: orbit index must be an integer",
        ),
        (
            k6_file(orbits=[{"k": 3, "weight": 0.5}, {"k": 3, "weight": 0.5}]),
            "design file: duplicate orbit index 3",
        ),
    ],
    ids=[
        "not-an-object",
        "missing-key",
        "float-k",
        "bool-lower",
        "string-upper",
        "empty-orbits",
        "orbits-not-a-list",
        "orbit-not-an-object",
        "orbit-without-weight",
        "orbit-with-extra-key",
        "float-orbit-index",
        "duplicate-orbit-index",
    ],
)
def test_malformed_design_file_rejected(capsys, tmp_path, command, payload, message):
    path = write_design(tmp_path / "d.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "expand"])
@pytest.mark.parametrize(
    "payload",
    [
        {"k": 0, "lower": 0, "upper": 0, "orbits": [{"k": 0, "weight": 1}]},
        {
            "k": 1,
            "lower": 0,
            "upper": 1,
            "orbits": [{"k": 0, "weight": 0.5}, {"k": 1, "weight": 0.5}],
        },
    ],
    ids=["k0", "k1"],
)
def test_design_file_with_fewer_than_two_factors_rejected(capsys, tmp_path, command, payload):
    # The one K policy: the same refusal as optimal/expand --k, before any
    # point is listed.
    path = write_design(tmp_path / "d.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert err == f"error: need K >= 2, got {payload['k']}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("optimal", "--k", "6", "--lower", "2", "--json"),
        ("optimal", "--k", "6", "--lower", "2", "--csv"),
        ("tables", "--which", "wide", "--k", "6", "--csv"),
        ("expand", "--k", "6", "--lower", "2", "--csv"),
    ],
    ids=["optimal-json", "optimal-csv", "tables-csv", "expand-csv"],
)
def test_unwritable_output_file_is_file_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error: ") and str(path) in err


def test_one_default_tolerance():
    # kw_check, optimal_design and both --tol options read the one default.
    for function in (kw_check, optimal_design):
        assert inspect.signature(function).parameters["tol"].default is KW_TOL
    parser = orbitdesign.cli.build_parser()
    assert parser.parse_args(["optimal", "--k", "6", "--lower", "2"]).tol is KW_TOL
    assert parser.parse_args(["verify", "d.json"]).tol is KW_TOL


# sha256 of the stdout of seven commands: both tables, three expands and three
# optimals (the CI job "Frozen outputs" checks the same).
FROZEN_OUTPUTS = {
    "tables --which both": "ab4da2c923b1d26d417ce91eeeee71c054a02bf5c1cbf3a18e68b4b65ce3a0a6",
    "expand --k 18 --lower 3": "99d35e5e8db86cee88732a427aeff3c2553258541ea8460b9e9c7eb2307c4ace",
    "expand --k 19 --lower 6": "29c69ce6f348fbfa59ee9b1db99a481c796001004118ff4398513dfdfe27f41a",
    "expand --k 20 --lower 3": "0cee179dfded935e455c6051bca53f9114f295c2839b1d6af3cd5e803b6a1a5f",
    "optimal --k 14292 --lower 7000":
        "589c453710a4248b45ed7bb0992eea0406a9654c6e323aa7fa4c339927106663",
    "optimal --k 20 --lower 8": "bb776827794999561d7163eb767ec4d778d1e64531984709068f759761e69fe1",
    "optimal --k 10 --lower 2 --upper 9":
        "09675284e7a67df74db67bda53843ad7dffe5e1986ccfd57aa849f7ec5bf0f56",
}


def test_frozen_command_outputs(capsys):
    digests = {}
    for command in FROZEN_OUTPUTS:
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0, command
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == FROZEN_OUTPUTS


def test_cli_imports_no_private_names():
    # Regime rules and other internals stay in the library modules.
    tree = ast.parse(Path(orbitdesign.cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("orbitdesign"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_names_no_regime_constructor():
    # optimal_design dispatches on the regime; the front end never picks a side.
    tree = ast.parse(Path(orbitdesign.cli.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert names & {"wide_design", "narrow_design"} == set()


def test_tables_build_every_row_through_optimal_design(capsys, monkeypatch):
    original = orbitdesign.cli.optimal_design
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(orbitdesign.cli, "optimal_design", counting)
    code, out, _ = run_cli(capsys, "tables", "--which", "both")
    assert code == 0
    headers = {"K L ell c w_L w_ell w_c B_K", "K L c w_L w_c efficiency B_K"}
    rows = [line for line in out.splitlines() if line not in headers]
    assert len(rows) == len(WIDE_ROWS) + len(NARROW_ROWS)
    assert len(calls) == len(rows)


def child_env():
    """Environment for a child interpreter that imports the package under test."""
    src = str(Path(orbitdesign.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    """`python -m orbitdesign ...` in a child interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "orbitdesign", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


class TestEntryPoints:
    def test_runtime_imports_neither_numpy_nor_scipy(self):
        # -S leaves site-packages off the path: the package must import from
        # the standard library alone, and no site hook can load numpy first.
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys, orbitdesign, orbitdesign.cli; "
                "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_json_unloaded(self):
        # Only design files need json; a cold command without one skips its
        # import.  The records are tuples, so dataclasses and the inspect it
        # pulls in stay unloaded too.
        modules = ("json", "dataclasses", "inspect")
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys, orbitdesign.cli; print([m for m in {modules} if m in sys.modules])"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_expand_through_pipe(self):
        # The cold path of the expand benchmark: bytes read through a pipe.
        proc = subprocess.run(
            [sys.executable, "-m", "orbitdesign",
             "expand", "--k", "18", "--lower", "3", "--n", "1000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = ["k,point,point_weight,count"]
        for k, w in sorted(optimal_design(18, 3).design.weights().items()):
            weight = float(w) / orbit_size(18, k)
            tail = f",{weight:.17g},{round(1000 * weight)}"
            for x in enumerate_orbit(18, k):
                lines.append(f"{k}," + "".join("+" if v == 1 else "-" for v in x) + tail)
        assert proc.stdout == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("csv", [False, True], ids=["stdout", "csv"])
    def test_closed_pipe_exits_quietly(self, tmp_path, csv):
        # A reader that stops early, as `| head -c 10` does, is no error:
        # expand exits as a tool killed by SIGPIPE would, with nothing on stderr.
        argv = ["expand", "--k", "18", "--lower", "3"]
        if csv:
            argv += ["--csv", str(tmp_path / "points.csv")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbitdesign", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.stdout.read(10) == b"k,point,po"
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_module_invocation(self):
        proc = run_module("tables", "--which", "narrow", "--k", "6")
        assert proc.returncode == 0
        assert "0.3865" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_module("optimal")
        assert proc.returncode == 2
