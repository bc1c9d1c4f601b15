"""Planted faults: every demo suite entry either fails under a small fault
in a term it reads, or is listed with the reason it cannot see the fault.

A suite whose checked term vanishes on its fixture passes whatever that
term is, so a PASS means something only beside a fault that turns it into
a FAIL.  Each entry of ``scenarios/demo.json`` runs through
``cli.run_suite`` at surface and curve grid 8 with its default tolerance.
A row that cannot fail on the demo's fixtures still asserts that the suite
passes, so it has to change when a fixture that can see the fault lands.
"""

from pathlib import Path

import pytest

from confgeo import cli, conformal, normalcurve

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"
SCENARIO = cli.load_scenario(DEMO)
GRIDS = {"surface": 8, "curve": 8, "mode": "uniform"}

# Fault: the partials of the dilation jet, scaled by 1 + 1e-6.  ``normalcurve``
# imports ``dilation_jet`` by name, so it is patched there too.
DZETA_SCALE = 1.0 + 1e-6

# entry -> (the column that sets the worst residual, its size under the fault)
DZETA_FAILS = {
    "christoffel-shift stereo": ("r122", 9.9e-7),
    "christoffel-shift flat_exp": ("r111", 1.0e-6),
    "tangential stereo unit_circle generic": ("r_u", 3.5e-6),
}

# entry -> why the fault cannot move its verdict
DZETA_PASSES = {
    "forms catenoid": "no pair: the suite reads no dilation",
    "frenet sphere latitude": "no pair: the suite reads no dilation",
    "frenet catenoid cat_waist": "no pair: the suite reads no dilation",
    "christoffel-shift cat_hel": "zeta = 1: its partials are 0, and so is any multiple",
    "bracket-shift stereo diag_line": "Theta = 0 along diag_line, a line through the origin",
    "bracket-shift spheres latitude": "constant zeta: its partials are 0",
    "geodesic-deviation stereo diag_line": "Theta = 0 along diag_line, so f = 0",
    "theorem3 spheres latitude nu_only": "constant zeta, and eta = 0",
    "theorem3 cat_hel cat_waist generic": "zeta = 1: its partials are 0",
    "tangential spheres latitude eta_only": "constant zeta, and nu = 0: g1 = g2 = 0",
    "classify sphere equator normal": "no pair: the suite reads no dilation",
    "pushforward stereo": "the suite reads zeta, not its partials",
}


def _label(entry: dict) -> str:
    return " ".join(str(v) for v in entry.values())


def _run(entry: dict) -> cli.SuiteResult:
    return cli.run_suite(SCENARIO, entry, GRIDS, SCENARIO.tolerances, None)


@pytest.fixture
def scaled_dzeta(monkeypatch):
    real = conformal.dilation_jet

    def planted(pair, u, v, forms):
        zeta, zj = real(pair, u, v, forms)
        return zeta, zj._replace(du=zj.du * DZETA_SCALE, dv=zj.dv * DZETA_SCALE)

    for module in (conformal, normalcurve):
        monkeypatch.setattr(module, "dilation_jet", planted)


def test_every_demo_entry_has_one_dzeta_row():
    labels = [_label(e) for e in SCENARIO.suites]
    assert sorted(labels) == sorted([*DZETA_FAILS, *DZETA_PASSES])


@pytest.mark.parametrize("entry", SCENARIO.suites, ids=_label)
def test_scaled_dzeta_fails_each_suite_that_reads_it(entry, scaled_dzeta):
    res = _run(entry)
    label = _label(entry)
    if label in DZETA_PASSES:
        assert res.pass_, (label, res.max_residual)
        return
    column, size = DZETA_FAILS[label]
    assert not res.pass_
    assert res.worst_at[0] == column
    assert res.max_residual == pytest.approx(size, rel=0.05)


@pytest.mark.parametrize("label", DZETA_FAILS)
def test_each_dzeta_fail_passes_without_the_fault(label):
    entry = next(e for e in SCENARIO.suites if _label(e) == label)
    assert _run(entry).pass_
