"""Planted faults: every demo suite entry either fails under a small fault
in a term it reads, or is listed with the reason it cannot see the fault.

A suite whose checked term vanishes on its fixture passes whatever that
term is, so a PASS means something only beside a fault that turns it into
a FAIL.  ``FAULTS`` is one table: each fault scales one term by 1 + 1e-6
and lists every entry of ``scenarios/demo.json`` once, as failing (with the
column that sets the worst residual and its size) or as passing (with the
reason).  Each entry runs through ``cli.run_suite`` at surface and curve
grid 8 with its default tolerance.  A row that cannot fail on the demo's
fixtures still asserts that the suite passes, so it has to change when a
fixture that can see the fault lands.

Scaling a profile's eta is not in the table: every deviation identity is
linear in (nu, eta), so all 15 entries pass with eta times 1 + 1e-6.
"""

from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from confgeo import cli, conformal, normalcurve
from confgeo.geometry import ChristoffelSet

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"
SCENARIO = cli.load_scenario(DEMO)
GRIDS = {"surface": 8, "curve": 8, "mode": "uniform"}
SCALE = 1.0 + 1e-6


class Fault(NamedTuple):
    plant: Callable   # (monkeypatch) -> None: patch the term where it is read
    fails: dict       # entry -> (the column that sets the worst residual, its size)
    passes: dict      # entry -> why the fault cannot move its verdict


def _scaled_dzeta(monkeypatch):
    real = conformal.dilation_jet

    def planted(pair, u, v, m, mt):
        zeta, zj = real(pair, u, v, m, mt)
        if zj.du is None:  # a jet of order 0, from forms without partials
            return zeta, zj
        return zeta, zj._replace(du=zj.du * SCALE, dv=zj.dv * SCALE)

    monkeypatch.setattr(conformal, "dilation_jet", planted)


def _scaled_theta(monkeypatch):
    real = conformal.theta_terms

    def planted(m, zeta_jet):
        return ChristoffelSet(*(t * SCALE for t in real(m, zeta_jet)))

    monkeypatch.setattr(conformal, "theta_terms", planted)


def _scaled_target_christoffel(monkeypatch):
    # The Christoffel symbols are linear in the first form's partials, and
    # with a declared dilation no other reader of ``pair.forms`` reads them.
    real = conformal.ConformalPair.forms
    partials = ("E_u", "E_v", "F_u", "F_v", "G_u", "G_v")

    def planted(pair, u, v):
        m, mt = real(pair, u, v)
        return m, mt._replace(**{k: getattr(mt, k) * SCALE for k in partials})

    monkeypatch.setattr(conformal.ConformalPair, "forms", planted)


def _scaled_h(monkeypatch):
    real = conformal.h_function

    def planted(m, th, cj):
        return real(m, th, cj) * SCALE

    monkeypatch.setattr(conformal, "h_function", planted)


def _scaled_target_second_form(monkeypatch):
    # theorem3 and tangential read L~, M~ and N~ from the one state of each
    # curve run; the target normal keeps its value
    real = normalcurve._profile_state

    def planted(pair, c, nu, eta, s):
        st = real(pair, c, nu, eta, s)
        sft = st["sft"]
        st["sft"] = sft._replace(L=sft.L * SCALE, M=sft.M * SCALE, N=sft.N * SCALE)
        return st

    monkeypatch.setattr(normalcurve, "_profile_state", planted)


NO_PAIR = "no pair: the suite reads no dilation"
NO_SECOND_FORM = "the suite reads no target L~, M~, N~"
FAULTS = {
    "dzeta": Fault(_scaled_dzeta, {
        "christoffel-shift stereo": ("r122", 9.9e-7),
        "christoffel-shift flat_exp": ("r111", 1.0e-6),
        "tangential stereo unit_circle generic": ("r_u", 3.5e-6),
    }, {
        "forms catenoid": NO_PAIR,
        "frenet sphere latitude": NO_PAIR,
        "frenet catenoid cat_waist": NO_PAIR,
        "christoffel-shift cat_hel": "zeta = 1: its partials are 0, and so is any multiple",
        "bracket-shift stereo diag_line": "Theta = 0 along diag_line, a line through the origin",
        "bracket-shift spheres latitude": "constant zeta: its partials are 0",
        "geodesic-deviation stereo diag_line": "Theta = 0 along diag_line, so f = 0",
        "theorem3 spheres latitude nu_only": "constant zeta, and eta = 0",
        "theorem3 cat_hel cat_waist generic": "zeta = 1: its partials are 0",
        "tangential spheres latitude eta_only": "constant zeta, and nu = 0: g1 = g2 = 0",
        "classify sphere equator normal": NO_PAIR,
        "pushforward stereo": "the suite reads zeta, not its partials",
    }),
    "theta": Fault(_scaled_theta, {
        "christoffel-shift stereo": ("r111", 9.85e-7),
        "christoffel-shift flat_exp": ("r111", 1.0e-6),
    }, {
        "forms catenoid": "no pair: the suite reads no Theta",
        "frenet sphere latitude": "no pair: the suite reads no Theta",
        "frenet catenoid cat_waist": "no pair: the suite reads no Theta",
        "christoffel-shift cat_hel": "zeta = 1: Theta = 0, and so is any multiple",
        "bracket-shift stereo diag_line": "the Theta bracket is 0 along diag_line",
        "bracket-shift spheres latitude": "constant zeta: Theta = 0",
        "geodesic-deviation stereo diag_line": "the Theta bracket is 0 along diag_line, so f = 0",
        "theorem3 spheres latitude nu_only": "constant zeta: Theta = 0",
        "theorem3 cat_hel cat_waist generic": "zeta = 1: Theta = 0",
        "tangential stereo unit_circle generic":
            "g1 and g2 read the partials of zeta, not Theta",
        "tangential spheres latitude eta_only": "constant zeta: Theta = 0",
        "classify sphere equator normal": "no pair: the suite reads no Theta",
        "pushforward stereo": "the suite reads no Theta",
    }),
    "target-christoffel": Fault(_scaled_target_christoffel, {
        "christoffel-shift stereo": ("r221", 9.85e-7),
        "christoffel-shift cat_hel": ("r121", 7.44e-7),
        "christoffel-shift flat_exp": ("r111", 1.0e-6),
        "bracket-shift spheres latitude": ("residual", 1.41e-6),
    }, {
        "forms catenoid": "no pair: the suite reads no target form",
        "frenet sphere latitude": "no pair: the suite reads no target form",
        "frenet catenoid cat_waist": "no pair: the suite reads no target form",
        "bracket-shift stereo diag_line":
            "diag_line maps to a great circle: the target cubic is 0 along it",
        "geodesic-deviation stereo diag_line":
            "diag_line maps to a great circle: the target cubic is 0 along it",
        "theorem3 spheres latitude nu_only": "the report takes the target form from its own walk",
        "theorem3 cat_hel cat_waist generic":
            "the report takes the target form from its own walk",
        "tangential stereo unit_circle generic":
            "the report takes the target form from its own walk",
        "tangential spheres latitude eta_only":
            "the report takes the target form from its own walk",
        "classify sphere equator normal": "no pair: the suite reads no target form",
        "pushforward stereo": "the report walks each patch itself, to order 1",
    }),
    "h": Fault(_scaled_h, {}, {
        "forms catenoid": "no pair: the suite reads no h",
        "frenet sphere latitude": "no pair: the suite reads no h",
        "frenet catenoid cat_waist": "no pair: the suite reads no h",
        "christoffel-shift stereo": "the suite reads no h",
        "christoffel-shift cat_hel": "the suite reads no h",
        "christoffel-shift flat_exp": "the suite reads no h",
        "bracket-shift stereo diag_line": "the suite reads no h",
        "bracket-shift spheres latitude": "the suite reads no h",
        "geodesic-deviation stereo diag_line":
            "h is a reported column, but the verdict does not read it",
        "theorem3 spheres latitude nu_only": "eta = 0: the h term drops out",
        "theorem3 cat_hel cat_waist generic": "zeta = 1: h = 0, and so is any multiple",
        "tangential stereo unit_circle generic": "the suite reads no h",
        "tangential spheres latitude eta_only": "the suite reads no h",
        "classify sphere equator normal": "no pair: the suite reads no h",
        "pushforward stereo": "the suite reads no h",
    }),
    "target-second-form": Fault(_scaled_target_second_form, {
        "theorem3 spheres latitude nu_only": ("r_best", 6.16e-6),
        "tangential stereo unit_circle generic": ("r_u", 1.47e-5),
        "tangential spheres latitude eta_only": ("r_v", 1.77e-5),
    }, {
        "forms catenoid": "no pair: the suite reads no target form",
        "frenet sphere latitude": "no pair: the suite reads no target form",
        "frenet catenoid cat_waist": "no pair: the suite reads no target form",
        "christoffel-shift stereo": NO_SECOND_FORM,
        "christoffel-shift cat_hel": NO_SECOND_FORM,
        "christoffel-shift flat_exp": NO_SECOND_FORM,
        "bracket-shift stereo diag_line": NO_SECOND_FORM,
        "bracket-shift spheres latitude": NO_SECOND_FORM,
        "geodesic-deviation stereo diag_line":
            "the suite reads no target L~, M~, N~: its oracle reads the target normal alone",
        "theorem3 cat_hel cat_waist generic":
            "cat_waist maps to a helix v = 0.6 of the helicoid, where L~ = 0 and v' = 0: "
            "kappa_n~ = 0, and so is any multiple",
        "classify sphere equator normal": "no pair: the suite reads no target form",
        "pushforward stereo": NO_SECOND_FORM,
    }),
}

# The dzeta rows keep the test names they were first checked under; the
# other faults run through the parallel tests below them.
OTHER_FAULTS = [name for name in FAULTS if name != "dzeta"]


def _label(entry: dict) -> str:
    return " ".join(str(v) for v in entry.values())


def _entry(label: str) -> dict:
    return next(e for e in SCENARIO.suites if _label(e) == label)


def _run(entry: dict) -> cli.SuiteResult:
    return cli.run_suite(SCENARIO, entry, GRIDS, SCENARIO.tolerances, None)


def _assert_lists_every_entry_once(name: str) -> None:
    fault = FAULTS[name]
    assert not set(fault.fails) & set(fault.passes)
    assert sorted(_label(e) for e in SCENARIO.suites) == sorted([*fault.fails, *fault.passes])


def _assert_fault_reaches(name: str, entry: dict, monkeypatch) -> None:
    fault, label = FAULTS[name], _label(entry)
    fault.plant(monkeypatch)
    res = _run(entry)
    if label in fault.passes:
        assert res.pass_, (name, label, res.max_residual)
        return
    column, size = fault.fails[label]
    assert not res.pass_, (name, label)
    assert res.worst_at[0] == column
    assert res.max_residual == pytest.approx(size, rel=0.05)


def test_every_demo_entry_has_one_dzeta_row():
    _assert_lists_every_entry_once("dzeta")


@pytest.mark.parametrize("entry", SCENARIO.suites, ids=_label)
def test_scaled_dzeta_fails_each_suite_that_reads_it(entry, monkeypatch):
    _assert_fault_reaches("dzeta", entry, monkeypatch)


@pytest.mark.parametrize("label", FAULTS["dzeta"].fails)
def test_each_dzeta_fail_passes_without_the_fault(label):
    assert _run(_entry(label)).pass_


@pytest.mark.parametrize("name", OTHER_FAULTS)
def test_every_demo_entry_has_one_row_per_fault(name):
    _assert_lists_every_entry_once(name)


@pytest.mark.parametrize("name, entry", [(n, e) for n in OTHER_FAULTS for e in SCENARIO.suites],
                         ids=[f"{n}: {_label(e)}" for n in OTHER_FAULTS for e in SCENARIO.suites])
def test_planted_fault_fails_each_suite_that_reads_it(name, entry, monkeypatch):
    _assert_fault_reaches(name, entry, monkeypatch)


@pytest.mark.parametrize("label", sorted({label for n in OTHER_FAULTS for label in FAULTS[n].fails}
                                         - set(FAULTS["dzeta"].fails)))
def test_each_fail_passes_without_its_fault(label):
    assert _run(_entry(label)).pass_
