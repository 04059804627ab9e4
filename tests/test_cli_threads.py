"""`--threads` is accepted and ignored: one serial batch, no thread, no `concurrent.futures`, same bytes."""

import json
import os
import subprocess
import sys
import threading

from flatkernels import cli

TABLE = {
    "kernel": "cyl-green", "R": 10, "y": [0.5, 0.5, 0.5, 0.5, 0.5],
    "manifold": {"kind": "Cylinder", "n": 5, "basis": [[1, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0]], "bundle": {"l": 1}},
    "samples": {"count": 12, "low": [0, 0, 0, 0, 0], "high": [1, 1, 1, 1, 1]}, "seed": 3,
}

# runs the CLI, then fails if anything imported concurrent.futures, numpy.ma or numpy.polynomial
PROBE = ("import sys; from flatkernels.cli import main; rc = main(sys.argv[1:]); "
         "sys.exit(rc or 3 * any(m.split('.')[0] == 'concurrent' or m == 'numpy.ma' "
         "or m.startswith('numpy.polynomial') for m in sys.modules))")


def test_threaded_table_imports_no_executor_and_keeps_the_bytes(tmp_path):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(TABLE))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    blobs = {}
    for threads in ("1", "2", "5"):
        out = tmp_path / f"t{threads}.csv"
        subprocess.run([sys.executable, "-c", PROBE, "table", "--config", str(cfg), "--threads", threads,
                        "--out", str(out)], check=True, env=env)
        blobs[threads] = out.read_bytes()
    assert blobs["2"] == blobs["1"] == blobs["5"]


def test_verify_all_imports_neither_executor_nor_masked_arrays(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", PROBE, "verify", "--suite", "all", "--out", str(tmp_path / "v.json")],
                   check=True, env=env)


def test_more_threads_than_points_start_no_thread(tmp_path, monkeypatch):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(TABLE))
    assert cli.main(["table", "--config", str(cfg), "--threads", "1", "--out", str(tmp_path / "t1.csv")]) == 0

    def refuse(self):
        raise AssertionError("table started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert cli.main(["table", "--config", str(cfg), "--threads", "64", "--out", str(tmp_path / "t64.csv")]) == 0
    assert (tmp_path / "t64.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()


def test_threaded_table_reports_a_config_error_as_one_thread_does(tmp_path):
    # the last slice holds a point on the singular orbit of y
    cfg = dict(TABLE, points=[[0.1, 0.2, 0.3, 0.4, 0.5], [0.2, 0.2, 0.2, 0.2, 0.2], [1.5, 0.5, 0.5, 0.5, 0.5]])
    del cfg["samples"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    codes = {t: cli.main(["table", "--config", str(path), "--threads", t, "--out", str(tmp_path / f"{t}.csv")])
             for t in ("1", "3")}
    assert codes["1"] == codes["3"] != 0
