import json
import warnings

import numpy as np
import pytest

from flatkernels import kernels_periodic as kp
from flatkernels import kernels_pin as kpin
from flatkernels.cli import KERNEL_NAMES, main
from flatkernels.kernels_periodic import cyl_cauchy
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec


@pytest.fixture
def cyl_config(tmp_path):
    cfg = {
        "manifold": {
            "kind": "Cylinder",
            "n": 4,
            "k": 1,
            "basis": [[1.0, 0.0, 0.0, 0.0]],
            "bundle": {"l": 0, "negate_fiber": False},
        },
        "kernel": "cyl-cauchy",
        "R": 20,
        "x": [0.3, 0.4, -0.2, 0.6],
        "y": [0.9, 0.1, 0.3, 0.2],
        "seed": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestEval:
    def test_matches_library_call(self, cyl_config, tmp_path):
        path, cfg = cyl_config
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(path), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        L = Lattice(cfg["manifold"]["basis"])
        ev = cyl_cauchy(L, BundleCharacter(0), np.array(cfg["x"]), np.array(cfg["y"]), 20)
        assert rec["value"]["coeffs"] == [float(c) for c in ev.value.coeffs]
        assert rec["value"]["tail_bound"] == ev.tail_bound
        assert rec["version"]

    def test_deterministic_bytes(self, cyl_config, tmp_path):
        path, _ = cyl_config
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["eval", "--config", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_kind_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"manifold": {"kind": "Donut", "n": 3}, "kernel": "proj-cauchy",
                                   "x": [0, 0, 0], "y": [1, 1, 1]}))
        assert main(["eval", "--config", str(bad)]) == 2

    def test_unknown_kernel_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"manifold": {"kind": "RealProjective", "n": 3, "p": 2},
                                   "kernel": "mystery", "x": [0, 0, 0], "y": [1, 1, 1]}))
        assert main(["eval", "--config", str(bad)]) == 2

    def test_wrong_regime_exits_2(self, tmp_path):
        cfg = {
            "manifold": {"kind": "Cylinder", "n": 3, "k": 2,
                         "basis": [[1.0, 0, 0], [0, 1.0, 0]]},
            "kernel": "cyl-cauchy",
            "x": [0.3, 0.4, 0.5], "y": [0.9, 0.1, 0.2], "R": 10,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(p)]) == 2

    @pytest.mark.parametrize("cfg", [
        {"kernel": "realproj-cauchy", "manifold": {"kind": "RealProjective", "n": 9, "p": 2}},
        {"kernel": "cyl-green", "R": 3, "manifold": {"kind": "Cylinder", "n": 9, "basis": [[1.0] + [0.0] * 8]}},
    ])
    def test_nine_dimensions_match_the_table_row(self, cfg, tmp_path):
        # n = 9 is past the Clifford tables; eval writes the value's blade slots itself
        x = [0.3, 0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(cfg, x=x, y=[0.5] * 9, points=[x])))
        assert main(["eval", "--config", str(p), "--out", str(tmp_path / "e.json")]) == 0
        assert main(["table", "--config", str(p), "--out", str(tmp_path / "t.csv")]) == 0
        rec = json.loads((tmp_path / "e.json").read_text())
        row = (tmp_path / "t.csv").read_text().splitlines()[1].split(",")
        comps = np.array(rec["components"])
        assert comps.tobytes() == np.array([float(v) for v in row[10:-1]]).tobytes()
        coeffs = np.array(rec["value"]["coeffs"])
        assert len(coeffs) == 512 and rec["value"]["n"] == 9
        slots = [1 << j for j in range(9)] if len(comps) == 9 else [0]
        assert coeffs[slots].tobytes() == comps.tobytes()
        assert not np.delete(coeffs, slots).any()

    def test_too_many_blades_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernel": "realproj-cauchy", "x": [0.3] * 17, "y": [0.5] * 17,
                                 "manifold": {"kind": "RealProjective", "n": 17, "p": 2}}))
        assert main(["eval", "--config", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: eval lists all 2^n")

    @pytest.mark.parametrize("kernel", ["cyl-cauchy", "cyl-green"])
    def test_value_is_the_kernel_evals_dict(self, kernel, tmp_path):
        cfg = {"kernel": kernel, "R": 6, "x": [0.3, 0.4, -0.2, 0.6, 0.1], "y": [0.9, 0.1, 0.3, 0.2, 0.5],
               "manifold": {"kind": "Cylinder", "n": 5, "basis": [[1.0, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0]]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(p), "--out", str(tmp_path / "e.json")]) == 0
        fn = cyl_cauchy if kernel == "cyl-cauchy" else kp.cyl_green
        L = Lattice(cfg["manifold"]["basis"])
        ev = fn(L, BundleCharacter(0), np.array(cfg["x"]), np.array(cfg["y"]), 6)
        assert json.loads((tmp_path / "e.json").read_text())["value"] == ev.to_dict()


class TestConverge:
    def test_diffs_below_tail_column(self, cyl_config, tmp_path):
        path, _ = cyl_config
        out = tmp_path / "c.csv"
        assert main(["converge", "--config", str(path), "--R-list", "10,20,40", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "R" and "tail_bound" in header and "status" in header
        assert ";" not in out.read_text()
        ti = header.index("tail_bound")
        di = header.index("successive_diff")
        rows = [ln.split(",") for ln in lines[1:]]
        assert rows[0][di] == ""
        for prev, row in zip(rows, rows[1:]):
            assert float(row[di]) <= float(prev[ti])
        assert all(r[-1] == "ok" for r in rows)

    def test_thread_counts_bit_identical(self, cyl_config, tmp_path):
        path, _ = cyl_config
        blobs = []
        for t in (1, 2, 8):
            out = tmp_path / f"t{t}.csv"
            assert main([
                "converge", "--config", str(path), "--R-list", "10,20",
                "--threads", str(t), "--out", str(out),
            ]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestTable:
    def test_segment_rows(self, tmp_path):
        cfg = {
            "manifold": {"kind": "Cylinder", "n": 4, "k": 1, "basis": [[1.0, 0, 0, 0]]},
            "kernel": "cyl-cauchy",
            "R": 10,
            "y": [0.9, 0.1, 0.3, 0.2],
            "segment": {"start": [0.2, 0.3, 0.1, 0.5], "end": [0.4, 0.5, 0.3, 0.7], "count": 5},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        assert main(["table", "--config", str(p), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("index,x1,x2,x3,x4,value1")


class TestVerify:
    def test_single_suite_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite", "clifford", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["passed"] is True

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_probes_suite_always_exits_0(self, tmp_path):
        out = tmp_path / "probes.json"
        assert main(["verify", "--suite", "probes", "--out", str(out)]) == 0


class TestOrder:
    @pytest.mark.parametrize("name,expect", [("winding1", 1), ("winding2", 2), ("nozero", 0)])
    def test_shipped_maps(self, tmp_path, name, expect):
        cfg = {"map": name, "center": [0.2, -0.1], "delta": 0.5, "grid": 128}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "order.json"
        assert main(["order", "--config", str(p), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["order"] == expect
        assert rec["diagnostics"]["polygon_winding_oracle"] == expect
        assert rec["diagnostics"]["delta_halved_order"] == expect


class TestProbe:
    def test_reports_archived(self, tmp_path):
        outdir = tmp_path / "reports"
        assert main(["probe", "--out", str(outdir)]) == 0
        names = sorted(f.name for f in outdir.iterdir())
        assert "probes_index.json" in names
        assert "literal_form_fd_residuals.json" in names
        assert "pv_jump_probe.json" in names
        assert "alleven_witness.json" in names
        assert "torus_literal_series.json" in names
        rec = json.loads((outdir / "literal_form_fd_residuals.json").read_text())
        assert rec["report"]["paper_literal_residual"] > rec["report"]["orbit_residual"]


class TestConvergeRegimes:
    def test_regularized_rate_in_csv(self, tmp_path):
        cfg = {
            "manifold": {"kind": "Cylinder", "n": 3, "k": 2,
                         "basis": [[1.0, 0, 0], [0, 1.0, 0]]},
            "kernel": "cyl-cauchy-reg",
            "x": [0.35, 0.45, 0.3],
            "y": [0.9, 0.15, -0.1],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "reg.csv"
        assert main(["converge", "--config", str(p), "--R-list", "10,20,40,80", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        di = header.index("successive_diff")
        diffs = [float(ln.split(",")[di]) for ln in lines[2:]]
        import math

        rates = [math.log2(b / a) for a, b in zip(diffs, diffs[1:])]
        for r in rates:  # empirical decay ~ R^-1 within +-0.3 (window [-1.3, -0.7])
            assert -1.3 <= r <= -0.7

    def test_torus_literal_status_column(self, tmp_path):
        cfg = {
            "manifold": {"kind": "Torus", "n": 2, "k": 2,
                         "basis": [[1.0, 0.0], [0.0, 1.0]]},
            "kernel": "torus-cauchy",
            "form": "paper-literal",
            "a": [0.25, 0.25], "b": [0.75, 0.6],
            "x": [0.4, 0.8], "y": [0.0, 0.0],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "lit.csv"
        assert main(["converge", "--config", str(p), "--R-list", "5,10,20,40", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        statuses = {ln.split(",")[-1] for ln in lines[1:]}
        assert statuses <= {"ok", "non-cauchy"} and len(statuses) == 1

    def test_verify_failure_exits_1(self, monkeypatch, tmp_path):
        import flatkernels.suites as suites_mod

        monkeypatch.setattr(
            suites_mod,
            "run_suite",
            lambda name, seed=0: {"suite": name, "checks": [], "passed": False},
        )
        assert main(["verify", "--suite", "clifford", "--out", str(tmp_path / "o.json")]) == 1


class TestTableSampleMode:
    def test_seeded_samples_deterministic(self, tmp_path):
        cfg = {
            "manifold": {"kind": "Cylinder", "n": 4, "k": 1, "basis": [[1.0, 0, 0, 0]]},
            "kernel": "cyl-cauchy",
            "R": 10,
            "y": [0.9, 0.1, 0.3, 0.2],
            "samples": {"count": 6, "low": [0.0, 0.0, 0.0, 0.0], "high": [0.4, 0.4, 0.4, 0.4]},
            "seed": 11,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        blobs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(["table", "--config", str(p), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert len(blobs[0].decode().strip().splitlines()) == 7

    def test_different_seed_different_points(self, tmp_path):
        base = {
            "manifold": {"kind": "Cylinder", "n": 4, "k": 1, "basis": [[1.0, 0, 0, 0]]},
            "kernel": "cyl-cauchy",
            "R": 10,
            "y": [0.9, 0.1, 0.3, 0.2],
            "samples": {"count": 3},
        }
        outs = []
        for seed in (1, 2):
            cfg = dict(base, seed=seed)
            p = tmp_path / f"cfg{seed}.json"
            p.write_text(json.dumps(cfg))
            out = tmp_path / f"o{seed}.csv"
            assert main(["table", "--config", str(p), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] != outs[1]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_eval_rejects_an_overflowing_difference(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"kernel": "torus-cauchy", "R": 3, "x": [0.5, 0.5], "y": [0.5, 0.5],
                             "a": [0.1, 1e308], "b": [0.3, 0.4],
                             "manifold": {"kind": "Torus", "n": 2, "basis": [[1, 0], [0.2, 1]]}}))
    assert main(["eval", "--config", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


class TestMalformedConfig:
    NAN = float("nan")

    @pytest.mark.parametrize("command,override,extra", [
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4,
                                           "basis": [[1.0, 0, 0, 0], [2.0, 0, 0, 0]]}}, [],
                     id="dependent-basis"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "basis": [[NAN, 0, 0, 0]]}}, [],
                     id="nan-basis"),
        pytest.param("eval", {"R": "abc"}, [], id="non-numeric-R"),
        pytest.param("eval", {"x": [NAN, 0.4, -0.2, 0.6]}, [], id="nan-x"),
        pytest.param("eval", {"y": [0.9, float("inf"), 0.3, 0.2]}, [], id="inf-y"),
        pytest.param("converge", {}, ["--R-list", "1,x"], id="non-numeric-R-list"),
        pytest.param("table", {"points": [[0.1, "a", 0.2, 0.3]]}, [], id="non-numeric-point"),
        pytest.param("table", {"points": []}, [], id="empty-points"),
        pytest.param("table", {"points": [[0.1, 0.2, NAN, 0.3]]}, [], id="nan-point"),
        pytest.param("table", {"segment": {"start": [0.1, 0.2, 0.3, NAN], "end": [0.2] * 4, "count": 3}},
                     [], id="nan-segment"),
        # integer fields: a fraction is rejected, never truncated
        pytest.param("eval", {"R": 2.5}, [], id="fractional-R"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4.5, "basis": [[1.0, 0, 0, 0]]}}, [],
                     id="fractional-n"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "k": 1.5, "basis": [[1.0, 0, 0, 0]]}},
                     [], id="fractional-k"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]],
                                           "bundle": {"l": 0.9}}}, [], id="fractional-bundle-l"),
        pytest.param("eval", {"kernel": "proj-cauchy",
                              "manifold": {"kind": "Projective", "n": 4, "basis": [[1.0, 0, 0, 0]], "p": 2.7}},
                     [], id="fractional-p"),
        pytest.param("converge", {"R_list": [10, 2.5]}, [], id="fractional-R-list-entry"),
        pytest.param("table", {"segment": {"start": [0.1] * 4, "end": [0.2] * 4, "count": 3.5}},
                     [], id="fractional-segment-count"),
        pytest.param("table", {"samples": {"count": 2.5}}, [], id="fractional-samples-count"),
        pytest.param("table", {"samples": {"count": 2}, "seed": 1.5}, [], id="fractional-seed"),
        pytest.param("eval", {"R": True}, [], id="boolean-R"),
        # a bundle is an object and its flags are JSON booleans, never truthy-cast
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]],
                                           "bundle": [1]}}, [], id="non-object-bundle"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]],
                                           "bundle": False}}, [], id="false-bundle"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]],
                                           "bundle": {"negate_fiber": "no"}}}, [], id="string-negate-fiber"),
        pytest.param("eval", {"manifold": {"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]],
                                           "bundle": {"negate_fiber": 1}}}, [], id="integer-negate-fiber"),
        pytest.param("eval", {"allow_noncharacter": "no"}, [], id="string-allow-noncharacter"),
        pytest.param("eval", {"allow_noncharacter": 0}, [], id="integer-allow-noncharacter"),
    ])
    def test_exits_2_with_one_line_message(self, cyl_config, tmp_path, capsys, command, override, extra):
        _, cfg = cyl_config
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(cfg, **override)))
        assert _exit_code([command, "--config", str(p)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        pytest.param({"delta": "abc"}, id="non-numeric-delta"),
        pytest.param({"delta": NAN}, id="nan-delta"),
        pytest.param({"delta": 0.0}, id="zero-delta"),
        pytest.param({"delta": -0.5}, id="negative-delta"),
        pytest.param({"grid": "many"}, id="non-numeric-grid"),
        pytest.param({"grid": 0}, id="zero-grid"),
        pytest.param({"center": ["a", 0.0]}, id="non-numeric-center"),
        pytest.param({"center": [NAN, 0.0]}, id="nan-center"),
        pytest.param({"map": "spiral"}, id="unknown-map"),
        pytest.param({"map": ["winding1"]}, id="non-string-map"),
        # contours on which |g| falls below the engine's 1e-12 guard
        pytest.param({"map": "winding2", "delta": 1e-6}, id="winding2-tiny-delta"),
        pytest.param({"map": "winding1", "delta": 1e-300}, id="winding1-tiny-delta"),
    ])
    def test_order_exits_2_with_one_line_message(self, tmp_path, capsys, override):
        p = tmp_path / "order.json"
        p.write_text(json.dumps(dict({"map": "winding1", "grid": 32}, **override)))
        assert _exit_code(["order", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [4.7, 64.5])
    def test_order_rejects_non_integral_grid(self, tmp_path, capsys, grid):
        p = tmp_path / "order.json"
        p.write_text(json.dumps({"map": "winding1", "grid": grid}))
        assert _exit_code(["order", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_order_accepts_integer_valued_grid(self, tmp_path):
        p = tmp_path / "order.json"
        p.write_text(json.dumps({"map": "winding2", "grid": 32.0}))
        out = tmp_path / "out.json"
        assert main(["order", "--config", str(p), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["order"] == 2 and rec["diagnostics"]["grid"] == 32

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, cyl_config, tmp_path, threads):
        _, cfg = cyl_config
        p = tmp_path / "table.json"
        p.write_text(json.dumps(dict(cfg, points=[cfg["x"]])))
        assert _exit_code(["table", "--config", str(p)]) == 0
        assert _exit_code(["table", "--config", str(p), "--threads", threads]) == 2


# One small valid case per CLI kernel name; the library calls below are the reference.
PARITY_CASES = {
    "cyl-cauchy": ({"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]], "bundle": {"l": 1}},
                   [0.9, 0.1, 0.3, 0.2]),
    "cyl-cauchy-reg": ({"kind": "Cylinder", "n": 3, "basis": [[1.0, 0, 0], [0.2, 1.0, 0]]},
                       [0.9, 0.15, -0.1]),
    "cyl-green": ({"kind": "Cylinder", "n": 5, "basis": [[1.0, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0]],
                   "bundle": {"l": 1}}, [0.7, 0.2, 0.1, 0.6, 0.4]),
    "cyl-green-reg": ({"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0], [0, 1.0, 0, 0]],
                       "bundle": {"l": 1}}, [0.7, 0.2, 0.1, 0.6]),
    "torus-cauchy": ({"kind": "Torus", "n": 2, "basis": [[1.0, 0.0], [0.0, 1.0]]}, [0.0, 0.0]),
    "proj-cauchy": ({"kind": "Projective", "n": 3, "basis": [[1.0, 0, 0]], "p": 2,
                     "bundle": {"negate_fiber": True}}, [0.7, 0.8, 0.25]),
    "proj-green": ({"kind": "Projective", "n": 4, "basis": [[1.0, 0, 0, 0]], "p": 3},
                   [0.7, 0.8, 0.25, 0.5]),
    "realproj-cauchy": ({"kind": "RealProjective", "n": 3, "p": 2, "bundle": {"negate_fiber": True}},
                        [0.7, 0.8, 0.25]),
    "moebius-green": ({"kind": "MoebiusStrip", "n": 4, "basis": [[1.0, 0, 0, 0], [0, 1.0, 0, 0]],
                       "sign_variant": "SumParity"}, [0.7, 0.8, 0.25, 0.5]),
    "klein-green": ({"kind": "KleinBottle", "n": 4, "basis": [[1.0, 0, 0, 0]]}, [0.7, 0.8, 0.25, 0.5]),
}
TORUS_A, TORUS_B = [0.25, 0.25], [0.75, 0.6]


def _library(name, spec, X, y, R, form):
    """(batched (values, tails), single-point (coeffs, tail)) straight from the library."""
    M = ManifoldSpec.from_dict(spec)
    L, char = M.lattice, M.bundle
    calls = {
        "cyl-cauchy": lambda P: kp.cyl_cauchy(L, char, P, y, R),
        "cyl-cauchy-reg": lambda P: kp.cyl_cauchy_reg(L, char, P, y, R),
        "cyl-green": lambda P: kp.cyl_green(L, char, P, y, R),
        "cyl-green-reg": lambda P: kp.cyl_green_reg(L, char, P, y, R),
        "torus-cauchy": lambda P: kp.torus_cauchy_two_point(
            L, char, TORUS_A, TORUS_B, P, R, form="coupled_subtracted" if form == "orbit" else form),
        "proj-cauchy": lambda P: (kpin.proj_cauchy_batch if P.ndim == 2 else kpin.proj_cauchy)(M, P, y, R, form),
        "proj-green": lambda P: (kpin.proj_green_batch if P.ndim == 2 else kpin.proj_green)(M, P, y, R, form),
        "realproj-cauchy": lambda P: (kpin.realproj_cauchy_batch if P.ndim == 2 else kpin.realproj_cauchy)(
            M.p, P, y, form, char.negate_fiber),
        "moebius-green": lambda P: (kpin.moebius_green_batch if P.ndim == 2 else kpin.moebius_green)(
            M, P, y, R, form),
        "klein-green": lambda P: (kpin.klein_green_batch if P.ndim == 2 else kpin.klein_green)(M, P, y, R, form),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = calls[name](X)
        single = calls[name](X[0])
    if name == "realproj-cauchy":
        return (batch, np.zeros(len(X))), (single.coeffs, 0.0)
    return batch, (single.value.coeffs, single.tail_bound)


class TestLibraryParity:
    @pytest.mark.parametrize("form", ["orbit", "paper-literal"])
    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_cli_matches_library_bits(self, tmp_path, name, form):
        assert set(PARITY_CASES) == set(KERNEL_NAMES)
        spec, y = PARITY_CASES[name]
        n = spec["n"]
        X = np.random.default_rng(7).uniform(0.05, 0.45, size=(5, n))
        cfg = {"kernel": name, "manifold": spec, "R": 6, "form": form, "y": y,
               "x": X[0].tolist(), "points": X.tolist(), "a": TORUS_A, "b": TORUS_B}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        (ref_vals, ref_tails), (ref_coeffs, ref_tail) = _library(
            name, spec, X, np.array(y), 6, form.replace("-", "_"))
        ref_vals = np.asarray(ref_vals, dtype=float).reshape(len(X), -1)
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.csv"
            assert main(["table", "--config", str(p), "--threads", threads, "--out", str(out)]) == 0
            body = np.array([[float(v) for v in ln.split(",")]
                             for ln in out.read_text().splitlines()[1:]])
            assert body[:, 1:1 + n].tobytes() == X.tobytes()
            assert body[:, 1 + n:-1].tobytes() == ref_vals.tobytes()
            assert body[:, -1].tobytes() == np.asarray(ref_tails, dtype=float).tobytes()
        out = tmp_path / "eval.json"
        assert main(["eval", "--config", str(p), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["value"]
        assert rec["coeffs"] == [float(c) for c in ref_coeffs]
        assert rec["tail_bound"] == ref_tail
