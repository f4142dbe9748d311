"""Family definitions, natural units, and the JSON schema."""

import math
import random

import pytest

from greenwell import model, resolvent
from greenwell.model import (
    DELTA_DECORATED,
    HALF_HO_HALF_LINEAR,
    HO,
    HO_ASYM,
    HO_PLUS_ABS,
    HO_STARK,
    LINEAR_ABS,
    LINEAR_ASYM,
    FamilyError,
    PhysicalScales,
    PotentialFamily,
    default_family,
    family_from_dict,
    family_to_dict,
    potential_value,
)

ALL_DEFAULTS = [
    default_family(HO),
    default_family(HO_STARK),
    default_family(HO_ASYM),
    default_family(LINEAR_ABS),
    default_family(LINEAR_ASYM),
    default_family(HALF_HO_HALF_LINEAR),
    default_family(HO_PLUS_ABS),
    default_family(DELTA_DECORATED, base=HO),
    default_family(DELTA_DECORATED, base=LINEAR_ABS),
]


def test_dimensionless_ho_direct_substitution():
    fam = default_family(HO)
    assert fam.natural_energy(2.0) == 2.0
    assert fam.scales.mu == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_dimensionless_linear_figure_convention():
    # hbar^2 = 2m, alpha = 1: rho = E, zeta = 1
    fam = default_family(LINEAR_ABS)
    assert fam.natural_energy(3.2) == pytest.approx(3.2, rel=1e-14)
    assert fam.scales.zeta == pytest.approx(1.0, rel=1e-14)


def test_dimensionless_half_half_xi():
    fam = default_family(HALF_HO_HALF_LINEAR)
    d = fam.scales
    assert d.xi == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # xi = (2/(mu phi))^(1/3) equivalently
    assert d.xi == pytest.approx((2.0 / (d.mu * d.phi)) ** (1.0 / 3.0), rel=1e-12)


def test_dimensionless_delta_ho_defaults():
    fam = default_family(DELTA_DECORATED, base=HO)
    d = fam.scales
    assert d.tau == pytest.approx(-1.0, rel=1e-14)
    assert d.p == pytest.approx(0.5, rel=1e-14)


def test_dimensionless_delta_linear_defaults():
    fam = default_family(DELTA_DECORATED, base=LINEAR_ABS)
    d = fam.scales
    assert d.eta == pytest.approx(1.0, rel=1e-14)
    assert d.zeta * fam.scales.delta_position == pytest.approx(0.5, rel=1e-14)


def test_eps_scaling_identity_all_quadratic():
    for fam in ALL_DEFAULTS:
        if fam.smooth_tag not in model.QUADRATIC_TAGS:
            continue
        for e in (-1.3, 0.0, 2.7):
            assert fam.natural_energy(e) == e / (fam.scales.hbar * fam.scales.omega1)


def test_round_trip_scales_from_map():
    # invert the defining formulas and recover the input scales to 1e-14
    fam = default_family(HO_STARK, hbar=0.7, mass=1.9, omega1=1.4, alpha1=1.1)
    s = fam.scales
    eps = fam.natural_energy(2.31)
    assert eps * s.hbar * s.omega1 == pytest.approx(2.31, rel=1e-14)
    assert s.mu ** 2 * s.hbar / (2.0 * s.omega1) == pytest.approx(s.mass, rel=1e-14)
    assert (s.phi * s.mass * s.omega1 ** 2) ** (1 / 3) == pytest.approx(s.alpha1, rel=1e-14)
    assert s.shift == pytest.approx((0.5 * s.mu * s.phi) ** 2, rel=1e-14)  # sigma - eps

    fam2 = default_family(DELTA_DECORATED, base=HO, hbar=1.2, mass=0.8,
                          delta_strength=-0.9, delta_position=0.4)
    s2 = fam2.scales
    assert s2.tau / math.sqrt(s2.mass / (math.pi * s2.omega1 * s2.hbar ** 3)) \
        == pytest.approx(s2.delta_strength, rel=1e-14)
    assert s2.p / s2.mu == pytest.approx(s2.delta_position, rel=1e-14)

    fam3 = default_family(LINEAR_ASYM, hbar=1.3, mass=0.6, alpha1=0.9, alpha2=1.7)
    s3 = fam3.scales
    k = (2.0 * s3.mass / s3.hbar ** 2) ** (1.0 / 3.0)
    assert fam3.natural_energy(-0.4) * s3.alpha1 ** 2 / k == pytest.approx(-0.4, rel=1e-14)
    assert s3.zeta / k == pytest.approx(s3.alpha1, rel=1e-14)
    assert s3.alpha1 / s3.beta == pytest.approx(s3.alpha2, rel=1e-14)


# each natural unit and energy variable as a function of the scales s,
# written out in the float grouping of its one definition in model
UNIT_EXPRESSIONS = {
    "two_m": lambda s: 2.0 * s.mass / s.hbar ** 2,
    "k": lambda s: (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0),
    "hbar_omega": lambda s: s.hbar * s.omega1,
    "mu": lambda s: math.sqrt(2.0 * s.mass * s.omega1 / s.hbar),
    "phi": lambda s: s.alpha1 ** 3 / (s.mass * s.omega1 * s.omega1),
    "shift": lambda s: (0.5 * math.sqrt(2.0 * s.mass * s.omega1 / s.hbar)
                        * (s.alpha1 ** 3 / (s.mass * s.omega1 * s.omega1))) ** 2,
    "ho_norm": lambda s: math.sqrt(s.mass / (math.pi * s.omega1 * s.hbar ** 3)),
    "alpha_ho": lambda s: (2.0 * s.mass * s.hbar * s.omega1 ** 3) ** (1.0 / 6.0),
    "xi": lambda s: (2.0 * s.mass * s.hbar * s.omega1 ** 3) ** (1.0 / 6.0) / s.alpha1,
    "lam": lambda s: s.omega1 / s.omega2,
    "zeta": lambda s: s.alpha1 * (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0),
    "beta": lambda s: s.alpha1 / s.alpha2,
    "tau": lambda s: s.delta_strength * math.sqrt(s.mass / (math.pi * s.omega1 * s.hbar ** 3)),
    "p": lambda s: math.sqrt(2.0 * s.mass * s.omega1 / s.hbar) * s.delta_position,
    "eta": lambda s: ((s.delta_strength / (2.0 * s.alpha1))
                      * (2.0 * s.mass / s.hbar ** 2) ** (2.0 / 3.0)),
}
ENERGY_EXPRESSIONS = {
    "eps": lambda s, e: e / (s.hbar * s.omega1),
    "rho": lambda s, e: e / s.alpha1 ** 2 * (2.0 * s.mass / s.hbar ** 2) ** (1.0 / 3.0),
}


@pytest.mark.parametrize("scales", [
    default_family(HO_PLUS_ABS).scales,
    PhysicalScales(hbar=0.8, mass=1.7, omega1=1.3, omega2=0.7, alpha1=1.1, alpha2=2.9,
                   delta_strength=-0.6, delta_position=0.45),
    default_family(DELTA_DECORATED, base=LINEAR_ABS, hbar=0.9, mass=1.4, alpha1=1.6,
                   delta_strength=-1.3, delta_position=0.7).scales,
], ids=["HO_PLUS_ABS", "every-scale", "DELTA_DECORATED-LINEAR_ABS"])
def test_natural_units_keep_every_bit_of_their_expressions(scales):
    for name, expression in UNIT_EXPRESSIONS.items():
        try:
            want = expression(scales)
        except TypeError:  # a scale the unit reads is not set
            with pytest.raises(TypeError):
                getattr(scales, name)
            continue
        got = getattr(scales, name)
        assert got.hex() == want.hex(), name
        assert vars(scales)[name] is got  # computed once per scales object
    for name, expression in ENERGY_EXPRESSIONS.items():
        try:
            want = expression(scales, 2.31)
        except TypeError:
            continue
        assert getattr(scales, name)(2.31).hex() == want.hex(), name


@pytest.mark.parametrize("scales", [{}, {"hbar": 0.8, "mass": 1.7}], ids=["default", "other"])
@pytest.mark.parametrize("fam", ALL_DEFAULTS, ids=lambda f: f"{f.tag}-{f.base}")
def test_energy_round_trips_through_the_natural_variable(fam, scales):
    fam = model.with_scales(fam, **scales)
    for e in (-3.7, -0.25, 0.0, 1e-6, 0.3, 1.0, 2.31, 7.9, 123.4):
        back = fam.energy(fam.natural_energy(e))
        assert abs(back - e) <= 2.0 * math.ulp(e), (e, back)
    unit = "hbar_omega" if fam.smooth_tag in model.QUADRATIC_TAGS else "k"
    assert vars(fam.scales)[unit] is getattr(fam.scales, unit)  # computed once per scales object


def test_potential_values():
    assert potential_value(default_family(HO), 0.0) == 0.0
    asym = default_family(HO_ASYM, omega2=2.0)
    assert potential_value(asym, -1.0) == pytest.approx(0.5)
    assert potential_value(asym, 1.0) == pytest.approx(2.0)
    hh = default_family(HALF_HO_HALF_LINEAR, hbar=1.0, mass=1.0, omega1=1.0, alpha1=1.0)
    assert potential_value(hh, 2.0) == pytest.approx(2.0)
    assert potential_value(hh, -2.0) == pytest.approx(2.0)


def test_potential_continuity_at_origin():
    for fam in ALL_DEFAULTS:
        left = potential_value(fam, -1e-9)
        right = potential_value(fam, 1e-9)
        assert abs(left - right) <= 1e-8, fam.tag


def test_potential_parity_exact():
    for tag in (LINEAR_ABS, HO_PLUS_ABS):
        fam = default_family(tag)
        for x in (0.3, 1.7, 2.9):
            assert potential_value(fam, x) == potential_value(fam, -x)


def test_family_validation():
    with pytest.raises(FamilyError):
        PotentialFamily("NOPE", PhysicalScales(omega1=1.0))
    with pytest.raises(FamilyError):
        PotentialFamily(HO, PhysicalScales())  # missing omega1
    with pytest.raises(FamilyError):
        PotentialFamily(HO_ASYM, PhysicalScales(omega1=1.0))  # missing omega2
    with pytest.raises(FamilyError):
        PotentialFamily(DELTA_DECORATED, PhysicalScales(omega1=1.0), base=HO)
    with pytest.raises(FamilyError):
        PhysicalScales(hbar=-1.0)
    with pytest.raises(FamilyError):
        PhysicalScales(alpha1=-0.5)
    # every scale must be finite, whether or not its family reads it
    for name in ("hbar", "mass", "omega1", "omega2", "alpha1", "alpha2",
                 "delta_strength", "delta_position"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(FamilyError, match=f"{name} must be finite"):
                PhysicalScales(**{name: bad})
    with pytest.raises(FamilyError):
        default_family(HO, omega1=math.nan)


def test_json_round_trip():
    for fam in ALL_DEFAULTS:
        d = family_to_dict(fam)
        back = family_from_dict(d)
        assert back == fam


def test_json_errors_name_fields():
    with pytest.raises(FamilyError, match="tag"):
        family_from_dict({"scales": {}})
    with pytest.raises(FamilyError, match="tag"):
        family_from_dict({"tag": "XYZ"})
    with pytest.raises(FamilyError, match="unknown scale fields"):
        family_from_dict({"tag": "HO", "scales": {"weird": 1.0}})
    with pytest.raises(FamilyError, match="finite"):
        family_from_dict({"tag": "HO", "scales": {"omega1": "x"}})


def ref_potential_value(family, x):
    """model.potential_value before the family built its V once: one
    expression per family, evaluated whole at every call (verbatim)."""
    s = family.scales
    tag = family.smooth_tag
    if tag == HO:
        return 0.5 * s.mass * s.omega1 ** 2 * x * x
    if tag == HO_STARK:
        return 0.5 * s.mass * s.omega1 ** 2 * x * x + s.alpha1 ** 3 * x
    if tag == HO_ASYM:
        w = s.omega1 if x <= 0.0 else s.omega2
        return 0.5 * s.mass * w * w * x * x
    if tag == LINEAR_ABS:
        return s.alpha1 ** 3 * abs(x)
    if tag == LINEAR_ASYM:
        return -s.alpha1 ** 3 * x if x <= 0.0 else s.alpha2 ** 3 * x
    if tag == HALF_HO_HALF_LINEAR:
        if x <= 0.0:
            return 0.5 * s.mass * s.omega1 ** 2 * x * x
        return s.alpha1 ** 3 * x
    return 0.5 * s.mass * s.omega1 ** 2 * x * x + s.alpha1 ** 3 * abs(x)


def test_potential_keeps_every_bit_of_the_expression():
    # the default wells and scales off 1, where a regrouped product would
    # round differently; x of both signs over several decades and 0
    rng = random.Random(7)
    families = list(ALL_DEFAULTS)
    for fam in ALL_DEFAULTS[:7]:
        changes = {name: rng.uniform(0.3, 3.0) for name in
                   ("mass", "omega1", "omega2", "alpha1", "alpha2")
                   if getattr(fam.scales, name) is not None}
        families.append(model.with_scales(fam, **changes))
    xs = [0.0, -0.0] + [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3) for _ in range(2000)]
    for fam in families:
        for x in xs:
            assert potential_value(fam, x).hex() == ref_potential_value(fam, x).hex(), (fam, x)


# ----------------------------------------------------------------------
# the family table: facts derived from it, against today's literals
# ----------------------------------------------------------------------


def test_tag_sets_are_the_literal_families():
    assert model.FAMILY_TAGS == {"HO", "HO_STARK", "HO_ASYM", "LINEAR_ABS", "LINEAR_ASYM",
                                 "HALF_HO_HALF_LINEAR", "HO_PLUS_ABS", "DELTA_DECORATED"}
    assert model.QUADRATIC_TAGS == {"HO", "HO_STARK", "HO_ASYM", "HALF_HO_HALF_LINEAR",
                                    "HO_PLUS_ABS"}
    assert isinstance(model.FAMILY_TAGS, frozenset)
    assert isinstance(model.QUADRATIC_TAGS, frozenset)


# (tag, base) -> message for each scale that, set to None, stops the family
MISSING_SCALE_ERRORS = {
    ("HO", None): {"omega1": "HO requires scale omega1"},
    ("HO_STARK", None): {"omega1": "HO_STARK requires scale omega1",
                         "alpha1": "HO_STARK requires scale alpha1"},
    ("HO_ASYM", None): {"omega1": "HO_ASYM requires scale omega1",
                        "omega2": "HO_ASYM requires scale omega2"},
    ("LINEAR_ABS", None): {"alpha1": "LINEAR_ABS requires scale alpha1"},
    ("LINEAR_ASYM", None): {"alpha1": "LINEAR_ASYM requires scale alpha1",
                            "alpha2": "LINEAR_ASYM requires scale alpha2"},
    ("HALF_HO_HALF_LINEAR", None): {"omega1": "HALF_HO_HALF_LINEAR requires scale omega1",
                                    "alpha1": "HALF_HO_HALF_LINEAR requires scale alpha1"},
    ("HO_PLUS_ABS", None): {"omega1": "HO_PLUS_ABS requires scale omega1",
                            "alpha1": "HO_PLUS_ABS requires scale alpha1"},
    ("DELTA_DECORATED", "HO"): {
        "omega1": "DELTA_DECORATED(HO) requires scale omega1",
        "delta_strength": "DELTA_DECORATED requires delta_strength and delta_position",
        "delta_position": "DELTA_DECORATED requires delta_strength and delta_position"},
    ("DELTA_DECORATED", "LINEAR_ABS"): {
        "alpha1": "DELTA_DECORATED(LINEAR_ABS) requires scale alpha1",
        "delta_strength": "DELTA_DECORATED requires delta_strength and delta_position",
        "delta_position": "DELTA_DECORATED requires delta_strength and delta_position"},
}


@pytest.mark.parametrize("tag,base", list(MISSING_SCALE_ERRORS), ids=str)
def test_each_required_scale_is_named_when_it_is_missing(tag, base):
    errors = MISSING_SCALE_ERRORS[tag, base]
    for name in ("omega1", "omega2", "alpha1", "alpha2", "delta_strength", "delta_position"):
        if name in errors:
            with pytest.raises(FamilyError) as info:
                default_family(tag, base=base, **{name: None})
            assert str(info.value) == errors[name]
        else:  # a scale the family does not read may be left out
            assert getattr(default_family(tag, base=base, **{name: None}).scales, name) is None


DEFAULT_DICTS = [
    {"tag": "HO", "scales": {"hbar": 1.0, "mass": 1.0, "omega1": 1.0}},
    {"tag": "HO_STARK",
     "scales": {"hbar": 1.0, "mass": 1.0, "omega1": 1.0, "alpha1": 1.091392883061106}},
    {"tag": "HO_ASYM", "scales": {"hbar": 1.0, "mass": 1.0, "omega1": 1.0, "omega2": 2.0}},
    {"tag": "LINEAR_ABS", "scales": {"hbar": 1.0, "mass": 0.5, "alpha1": 1.0}},
    {"tag": "LINEAR_ASYM", "scales": {"hbar": 1.0, "mass": 0.5, "alpha1": 1.0, "alpha2": 2.0}},
    {"tag": "HALF_HO_HALF_LINEAR",
     "scales": {"hbar": 1.0, "mass": 0.5, "omega1": 1.0, "alpha1": 0.7071067811865476}},
    {"tag": "HO_PLUS_ABS", "scales": {"hbar": 1.0, "mass": 1.0, "omega1": 1.0, "alpha1": 1.0}},
    {"tag": "DELTA_DECORATED", "base": "HO",
     "scales": {"hbar": 1.0, "mass": 1.0, "omega1": 1.0,
                "delta_strength": -1.7724538509055159, "delta_position": 0.35355339059327373}},
    {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
     "scales": {"hbar": 1.0, "mass": 0.5, "alpha1": 1.0,
                "delta_strength": 2.0, "delta_position": 0.5}},
]


@pytest.mark.parametrize("want", DEFAULT_DICTS, ids=lambda d: f"{d['tag']}-{d.get('base')}")
def test_default_family_gives_the_literal_scales(want):
    got = family_to_dict(default_family(want["tag"], base=want.get("base")))
    assert got == want
    assert list(got["scales"]) == list(want["scales"])  # in field order
    assert [repr(v) for v in got["scales"].values()] == [repr(v) for v in want["scales"].values()]


@pytest.mark.parametrize("base", [None, "HO_ASYM", "DELTA_DECORATED", "", ["HO"]], ids=repr)
def test_a_base_a_delta_cannot_decorate_is_named(base):
    message = "^DELTA_DECORATED requires base HO or LINEAR_ABS$"
    with pytest.raises(FamilyError, match=message):
        default_family(DELTA_DECORATED, base=base)
    with pytest.raises(FamilyError, match=message):
        family_from_dict({"tag": "DELTA_DECORATED", "base": base})
    with pytest.raises(FamilyError, match=message):
        PotentialFamily(DELTA_DECORATED, default_family(HO_ASYM).scales, base=base)


def test_green_decorated_keeps_its_own_base_error():
    scales = default_family(DELTA_DECORATED, base=HO).scales
    with pytest.raises(ValueError) as info:
        resolvent.green_decorated(0.1, 0.2, 1.3, HO_ASYM, scales)
    assert not isinstance(info.value, FamilyError)
    assert str(info.value) == "green_decorated base must be HO or LINEAR_ABS, got 'HO_ASYM'"


@pytest.mark.parametrize("value,ok", [
    (0, True), (-3, True), (2.5, True), (-0.0, True), (10 ** 308, True),
    (1.7976931348623157e308, True),
    (10 ** 309, False), (-(10 ** 400), False), (True, False), (False, False),
    (math.nan, False), (math.inf, False), (-math.inf, False),
    ("1", False), (None, False), ([1.0], False), ({"x": 1}, False),
], ids=["0", "-3", "2.5", "-0.0", "int-1e308", "max-float", "int-1e309", "int--1e400",
        "True", "False", "nan", "inf", "-inf", "str", "None", "list", "dict"])
def test_finite_number_is_a_finite_json_number(value, ok):
    assert model.finite_number(value) is ok


def test_family_scales_are_finite_json_numbers():
    for bad in (True, False, 10 ** 400, "1", [1.0]):
        with pytest.raises(FamilyError) as info:
            family_from_dict({"tag": "HO", "scales": {"omega1": bad}})
        assert str(info.value) == f"scale field 'omega1' must be a finite number, got {bad!r}"
    # an integer within the float range is a number
    assert family_from_dict({"tag": "HO", "scales": {"omega1": 2}}).scales.omega1 == 2.0
