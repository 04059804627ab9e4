import numpy as np
import pytest

from flatkernels.suites import ORDER_MAPS, SUITES, probe_reports, run_suite


def test_all_suites_pass():
    report = run_suite("all", seed=0)
    assert report["passed"]
    assert {r["suite"] for r in report["reports"]} == set(SUITES)


def test_probe_reports_structure():
    reports = probe_reports()
    assert set(reports) == {
        "literal_form_fd_residuals",
        "pv_jump_probe",
        "alleven_witness",
        "torus_literal_series",
    }
    assert reports["alleven_witness"]["character_identity_fails"]
    assert reports["alleven_witness"]["alleven_descent_deviation"] > 1e-3
    assert reports["alleven_witness"]["sumparity_descent_deviation"] < 1e-6


@pytest.mark.parametrize("name", sorted(ORDER_MAPS))
def test_order_maps_take_a_contour_in_one_call(name):
    c = np.array([0.2, -0.1])
    theta = np.linspace(0.0, 6.0, 37)
    circle = c[None, :] + 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    batch = ORDER_MAPS[name](circle, c)
    rows = np.array([ORDER_MAPS[name](p, c) for p in circle])
    assert batch.shape == circle.shape
    assert batch.tobytes() == rows.tobytes()
