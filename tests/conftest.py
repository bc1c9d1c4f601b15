"""Shared geometric fixtures: patches, curves and conformal pairs."""

from __future__ import annotations

import math

import pytest

from confgeo import exprkit
from confgeo.conformal import ConformalPair
from confgeo.exprkit import Expr, parse_scalar_field, substitute
from confgeo.geometry import AbstractMetric, ParamCurve, SurfacePatch

UV = ("u", "v")
S = ("s",)
XYZ = ("x", "y", "z")

HALF_PI = repr(math.pi / 2)
QUARTER_PI = repr(math.pi / 4)
ROOT2 = repr(math.sqrt(2.0))


def e2(text: str) -> Expr:
    return parse_scalar_field(text, UV)


def e1(text: str) -> Expr:
    return parse_scalar_field(text, S)


def e3(text: str) -> Expr:
    return parse_scalar_field(text, XYZ)


# -- patches -----------------------------------------------------------------

PLANE_BOX = ((-4.0, 4.0), (-4.0, 4.0))
SPHERE_BOX = ((-7.0, 7.0), (0.3, 2.8))
STEREO_BOX = ((-1.0, 1.0), (-1.0, 1.0))


def plane(box=PLANE_BOX, z: str = "0") -> SurfacePatch:
    return SurfacePatch(e2("u"), e2("v"), e2(z), box)


def sphere(radius: float = 1.0, center_z: float = 0.0, box=SPHERE_BOX) -> SurfacePatch:
    r = repr(float(radius))
    cz = repr(float(center_z))
    return SurfacePatch(e2(f"{r}*sin(v)*cos(u)"), e2(f"{r}*sin(v)*sin(u)"),
                        e2(f"{cz}+{r}*cos(v)"), box)


def cylinder(box=((-9.0, 9.0), (-9.0, 9.0))) -> SurfacePatch:
    return SurfacePatch(e2("cos(u)"), e2("sin(u)"), e2("v"), box)


def catenoid(box=((0.1, 1.2), (0.2, 1.0))) -> SurfacePatch:
    return SurfacePatch(e2("cosh(v)*cos(u)"), e2("cosh(v)*sin(u)"), e2("v"), box)


def helicoid(box=((0.1, 1.2), (0.2, 1.0))) -> SurfacePatch:
    return SurfacePatch(e2("sinh(v)*cos(u)"), e2("sinh(v)*sin(u)"), e2("u"), box)


def stereographic_target(box=STEREO_BOX) -> SurfacePatch:
    d = "(1+u^2+v^2)"
    return SurfacePatch(e2(f"2*u/{d}"), e2(f"2*v/{d}"), e2(f"(u^2+v^2-1)/{d}"), box)


def flat_metric(box=STEREO_BOX) -> AbstractMetric:
    return AbstractMetric(e2("1"), e2("0"), e2("1"), box)


def exp_metric(box=STEREO_BOX) -> AbstractMetric:
    return AbstractMetric(e2("exp(2*u)"), e2("0"), e2("exp(2*u)"), box)


# -- curves (all unit speed on their source surface) -------------------------


def line_curve() -> ParamCurve:
    return ParamCurve(e1("s"), e1("0"))


def diag_line(alpha: float = 0.4) -> ParamCurve:
    a = repr(float(alpha))
    return ParamCurve(e1(f"s*cos({a})"), e1(f"s*sin({a})"))


def circle_curve(radius: float = 1.0, cx: float = 0.0, cy: float = 0.0) -> ParamCurve:
    r = repr(float(radius))
    return ParamCurve(e1(f"{cx!r}+{r}*cos(s/{r})"), e1(f"{cy!r}+{r}*sin(s/{r})"))


def equator_curve() -> ParamCurve:
    return ParamCurve(e1("s"), e1(HALF_PI))


def latitude_curve(v0: float = math.pi / 4) -> ParamCurve:
    inv_sin = repr(1.0 / math.sin(v0))
    return ParamCurve(e1(f"s*{inv_sin}"), e1(repr(float(v0))))


def helix_curve() -> ParamCurve:
    c = repr(1.0 / math.sqrt(2.0))
    return ParamCurve(e1(f"s*{c}"), e1(f"s*{c}"))


def offset_circle_curve() -> ParamCurve:
    return ParamCurve(e1("3+cos(s)"), e1("sin(s)"))


# -- conformal pairs ----------------------------------------------------------

INV_STEREO_DEN = "(x^2+y^2+(z-1)^2)"


def stereographic_ambient() -> tuple[Expr, Expr, Expr]:
    d = INV_STEREO_DEN
    return (e3(f"2*x/{d}"), e3(f"2*y/{d}"), e3(f"1+2*(z-1)/{d}"))


def stereographic_pair(with_ambient: bool = True) -> ConformalPair:
    return ConformalPair(
        plane(STEREO_BOX), stereographic_target(),
        dilation=e2("2/(1+u^2+v^2)"),
        ambient_map=stereographic_ambient() if with_ambient else None)


def sphere_homothety_pair(factor: float = 3.0) -> ConformalPair:
    return ConformalPair(sphere(1.0), sphere(factor), dilation=e2(repr(float(factor))))


def catenoid_helicoid_pair() -> ConformalPair:
    return ConformalPair(catenoid(), helicoid(), dilation=e2("1"))


def flat_exp_pair() -> ConformalPair:
    return ConformalPair(flat_metric(), exp_metric(), dilation=e2("exp(u)"))


def identity_pair(patch: SurfacePatch | None = None) -> ConformalPair:
    p = patch if patch is not None else sphere(1.0)
    return ConformalPair(p, p, dilation=e2("1"))


def scaling_ambient_pair(factor: float = 3.0) -> ConformalPair:
    f = repr(float(factor))
    target = SurfacePatch(e2(f"{f}*u"), e2(f"{f}*v"), e2("0"), STEREO_BOX)
    return ConformalPair(plane(STEREO_BOX), target, dilation=e2(f),
                         ambient_map=(e3(f"{f}*x"), e3(f"{f}*y"), e3(f"{f}*z")))


def inversion_sphere_pair() -> ConformalPair:
    """Ambient inversion x -> x/|x|^2 applied to a sphere of radius 2
    centered at (0, 0, 3); the induced dilation is 1/(13 + 12 cos v)."""
    box = ((0.1, 2.0), (0.4, 2.7))
    src = sphere(2.0, center_z=3.0, box=box)
    inv = (e3("x/(x^2+y^2+z^2)"), e3("y/(x^2+y^2+z^2)"), e3("z/(x^2+y^2+z^2)"))
    mapping = {"x": src.x, "y": src.y, "z": src.z}
    target = SurfacePatch(substitute(inv[0], mapping), substitute(inv[1], mapping),
                          substitute(inv[2], mapping), box)
    return ConformalPair(src, target, dilation=e2("1/(13+12*cos(v))"), ambient_map=inv)


def sheared_stereographic_pair(shear: float = 0.3) -> ConformalPair:
    """Stereographic pair re-coordinatized by u -> u + shear*v: both metrics
    carry F != 0, exercising the mixed-term Christoffel forms."""
    k = repr(float(shear))
    box = ((-0.7, 0.7), (-0.7, 0.7))
    src = SurfacePatch(e2(f"u+{k}*v"), e2("v"), e2("0"), box)
    mapping = {"u": e2(f"u+{k}*v"), "v": e2("v")}
    tgt0 = stereographic_target()
    target = SurfacePatch(substitute(tgt0.x, mapping), substitute(tgt0.y, mapping),
                          substitute(tgt0.z, mapping), box)
    return ConformalPair(src, target, dilation=e2(f"2/(1+(u+{k}*v)^2+v^2)"))


# -- walks -------------------------------------------------------------------


@pytest.fixture()
def walks(monkeypatch):
    """Every expression walked, in order, as (expression, grid values): a
    walk of several expressions gives one entry per expression, in order."""
    walked, walk_of, evaluate_of = [], exprkit._walk, exprkit._evaluate

    def counting(values, tagged):
        exprs, walk = tagged
        walked.extend((e, values) for e in exprs)
        return evaluate_of(values, walk)

    monkeypatch.setattr(exprkit, "_walk", lambda exprs, order: (exprs, walk_of(exprs, order)))
    monkeypatch.setattr(exprkit, "_evaluate", counting)
    return walked
