"""Potential families, physical scales, and their natural units.

Single source of truth for unit conventions (NaturalUnits).  Eight families are
supported; each is defined by a tag plus the physical scales it uses:

    HO                   V = (1/2) m w1^2 x^2
    HO_STARK             V = (1/2) m w1^2 x^2 + a1^3 x
    HO_ASYM              V = (1/2) m w1^2 x^2 (x<=0), (1/2) m w2^2 x^2 (x>=0)
    LINEAR_ABS           V = a1^3 |x|
    LINEAR_ASYM          V = -a1^3 x (x<=0), a2^3 x (x>=0)
    HALF_HO_HALF_LINEAR  V = (1/2) m w1^2 x^2 (x<=0), a1^3 x (x>=0)
    HO_PLUS_ABS          V = (1/2) m w1^2 x^2 + a1^3 |x|
    DELTA_DECORATED      base potential (HO or LINEAR_ABS) + a delta(x - q)

_DEFAULTS, the family table, holds each smooth family's scales at the
figure-convention defaults and defines its required scales (the ones
other than hbar and mass) and energy variable (eps = E/(hbar w1) when it
lists omega1, rho otherwise).  The defaults follow the reference figures:
hbar = m = w = 1 for the quadratic families, but hbar^2 = 2m for the
half/half one, and hbar^2 = 2m, alpha = 1 for the linear ones (rho = E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

__all__ = [
    "HO",
    "HO_STARK",
    "HO_ASYM",
    "LINEAR_ABS",
    "LINEAR_ASYM",
    "HALF_HO_HALF_LINEAR",
    "HO_PLUS_ABS",
    "DELTA_DECORATED",
    "FAMILY_TAGS",
    "QUADRATIC_TAGS",
    "PhysicalScales",
    "PotentialFamily",
    "NaturalUnits",
    "potential_value",
    "default_family",
    "family_from_dict",
    "family_to_dict",
    "with_scales",
    "FamilyError",
]

HO = "HO"
HO_STARK = "HO_STARK"
HO_ASYM = "HO_ASYM"
LINEAR_ABS = "LINEAR_ABS"
LINEAR_ASYM = "LINEAR_ASYM"
HALF_HO_HALF_LINEAR = "HALF_HO_HALF_LINEAR"
HO_PLUS_ABS = "HO_PLUS_ABS"
DELTA_DECORATED = "DELTA_DECORATED"

# the family table; see module docstring
_DEFAULTS = {
    HO: dict(hbar=1.0, mass=1.0, omega1=1.0),
    HO_STARK: dict(hbar=1.0, mass=1.0, omega1=1.0, alpha1=1.3 ** (1.0 / 3.0)),
    HO_ASYM: dict(hbar=1.0, mass=1.0, omega1=1.0, omega2=2.0),
    LINEAR_ABS: dict(hbar=1.0, mass=0.5, alpha1=1.0),
    LINEAR_ASYM: dict(hbar=1.0, mass=0.5, alpha1=1.0, alpha2=2.0),
    HALF_HO_HALF_LINEAR: dict(hbar=1.0, mass=0.5, omega1=1.0, alpha1=math.sqrt(0.5)),
    HO_PLUS_ABS: dict(hbar=1.0, mass=1.0, omega1=1.0, alpha1=1.0),
}
# the bases a delta decorates, each with tau = -1, p = 0.5 or eta = 1, zeta q = 0.5
_DELTA_DEFAULTS = {
    HO: dict(delta_strength=-math.sqrt(math.pi), delta_position=0.5 / math.sqrt(2.0)),
    LINEAR_ABS: dict(delta_strength=2.0, delta_position=0.5),
}

FAMILY_TAGS = frozenset(_DEFAULTS) | {DELTA_DECORATED}
# families whose natural energy variable is eps = E/(hbar w1)
QUADRATIC_TAGS = frozenset(tag for tag, d in _DEFAULTS.items() if "omega1" in d)
# the required scales that may be 0; the family divides by every other one.
# alpha1 = 0 is the plain oscillator, where the muphi sweep starts
_MAY_BE_ZERO = {(HO_STARK, "alpha1"), (HO_PLUS_ABS, "alpha1")}


def finite_number(value):
    """Whether `value` is a JSON number with a finite float value: an int
    or a float, never a bool, and no int beyond the float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


class FamilyError(ValueError):
    """Invalid or incomplete potential-family description."""


@dataclass(frozen=True)
class PhysicalScales:
    """Dimensional constants defining one problem instance.

    alpha1/alpha2 are the linear-slope scales (V ~ alpha^3 x), so they
    carry units of (energy/length)^(1/3) and must be non-negative:
    the Airy boundary argument requires confining slopes.  The delta
    strength a may take either sign (attractive a < 0, repulsive a > 0).
    Every scale given must be finite.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega1: float | None = None
    omega2: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None
    delta_strength: float | None = None
    delta_position: float | None = None

    def __post_init__(self):
        for name in _SCALE_FIELDS:
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise FamilyError(f"{name} must be finite, got {v}")
        if not (self.hbar > 0.0) or not (self.mass > 0.0):
            raise FamilyError("hbar and mass must be positive")
        for name in ("omega1", "omega2", "alpha1", "alpha2"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise FamilyError(f"{name} must be >= 0, got {v}")

    @cached_property
    def natural(self):
        """The NaturalUnits of these scales, built once."""
        return NaturalUnits(self)


@dataclass(frozen=True)
class PotentialFamily:
    tag: str
    scales: PhysicalScales
    base: str | None = None  # DELTA_DECORATED only: HO or LINEAR_ABS

    def __post_init__(self):
        smooth = _smooth_tag(self.tag, self.base)
        s = self.scales
        if self.tag == DELTA_DECORATED and None in (s.delta_strength, s.delta_position):
            raise FamilyError("DELTA_DECORATED requires delta_strength and delta_position")
        for name in _DEFAULTS[smooth]:
            if name in ("hbar", "mass"):
                continue
            value = getattr(s, name)
            if value is None:
                raise FamilyError(f"{self.name} requires scale {name}")
            if value == 0.0 and (smooth, name) not in _MAY_BE_ZERO:
                raise FamilyError(f"{self.name} divides by scale {name}, so it must be > 0")

    @property
    def name(self):
        """The well's name in messages: the tag, or TAG(BASE)."""
        return self.tag if self.base is None else f"{self.tag}({self.base})"

    @property
    def smooth_tag(self):
        """Tag of the smooth part (base potential for delta decoration)."""
        return self.base if self.tag == DELTA_DECORATED else self.tag

    @cached_property
    def potential(self):
        """The smooth part of V as a function of x alone, in energy units,
        built once per family.  The scale factors 0.5 m w^2 and alpha^3
        are formed first, as the left-to-right products of V's
        expression form them, so every value is the float that
        expression gives.  x must be finite (potential_value checks)."""
        s = self.scales
        tag = self.smooth_tag
        if tag in (HO, HO_STARK, HALF_HO_HALF_LINEAR, HO_PLUS_ABS):
            k = 0.5 * s.mass * s.omega1 ** 2
        if tag in (HO_STARK, LINEAR_ABS, HALF_HO_HALF_LINEAR, HO_PLUS_ABS):
            a3 = s.alpha1 ** 3
        if tag == HO:
            return lambda x: k * x * x
        if tag == HO_STARK:
            return lambda x: k * x * x + a3 * x
        if tag == HO_ASYM:
            k1 = 0.5 * s.mass * s.omega1 * s.omega1
            k2 = 0.5 * s.mass * s.omega2 * s.omega2
            return lambda x: k1 * x * x if x <= 0.0 else k2 * x * x
        if tag == LINEAR_ABS:
            return lambda x: a3 * abs(x)
        if tag == LINEAR_ASYM:
            m1 = -s.alpha1 ** 3
            a2 = s.alpha2 ** 3
            return lambda x: m1 * x if x <= 0.0 else a2 * x
        if tag == HALF_HO_HALF_LINEAR:
            return lambda x: k * x * x if x <= 0.0 else a3 * x
        return lambda x: k * x * x + a3 * abs(x)  # HO_PLUS_ABS

    @property
    def bottom(self):
        """x of the smooth potential's minimum: -phi for the Stark well,
        0 for every other smooth tag."""
        return -self.scales.natural.phi if self.smooth_tag == HO_STARK else 0.0

    def natural_energy(self, energy):
        """E in the family's natural energy variable, eps or rho."""
        units = self.scales.natural
        return units.eps(energy) if self.smooth_tag in QUADRATIC_TAGS else units.rho(energy)

    def energy(self, value):
        """The inverse of natural_energy."""
        s = self.scales
        if self.smooth_tag in QUADRATIC_TAGS:
            return value * s.hbar * s.omega1
        return value * s.alpha1 ** 2 / s.natural.k


class NaturalUnits:
    """The energy-independent natural units of one PhysicalScales, built
    once per scales object (PhysicalScales.natural).  Each is computed
    the first time it is read, so a family reads only what its scales
    define.  Every other module reads its units here; each expression
    keeps the float grouping its callers always used, so their values
    keep every bit."""

    def __init__(self, scales):
        self.scales = scales

    two_m = cached_property(lambda u: 2.0 * u.scales.mass / u.scales.hbar ** 2)
    k = cached_property(lambda u: u.two_m ** (1.0 / 3.0))  # (2m / hbar^2)^(1/3)
    hbar_omega = cached_property(lambda u: u.scales.hbar * u.scales.omega1)
    mu = cached_property(  # 1 / length
        lambda u: math.sqrt(2.0 * u.scales.mass * u.scales.omega1 / u.scales.hbar))
    phi = cached_property(
        lambda u: u.scales.alpha1 ** 3 / (u.scales.mass * u.scales.omega1 * u.scales.omega1))
    shift = cached_property(lambda u: (0.5 * u.mu * u.phi) ** 2)  # sigma - eps
    ho_norm = cached_property(  # sqrt(m / (pi w1 hbar^3))
        lambda u: math.sqrt(u.scales.mass / (math.pi * u.scales.omega1 * u.scales.hbar ** 3)))
    alpha_ho = cached_property(  # (2 m hbar w1^3)^(1/6), the alpha1 of xi = 1
        lambda u: (2.0 * u.scales.mass * u.scales.hbar * u.scales.omega1 ** 3) ** (1.0 / 6.0))
    xi = cached_property(lambda u: u.alpha_ho / u.scales.alpha1)
    lam = cached_property(lambda u: u.scales.omega1 / u.scales.omega2)
    zeta = cached_property(lambda u: u.scales.alpha1 * u.k)
    beta = cached_property(lambda u: u.scales.alpha1 / u.scales.alpha2)
    tau = cached_property(lambda u: u.scales.delta_strength * u.ho_norm)
    p = cached_property(lambda u: u.mu * u.scales.delta_position)
    eta = cached_property(
        lambda u: (u.scales.delta_strength / (2.0 * u.scales.alpha1)) * u.two_m ** (2.0 / 3.0))

    def eps(self, energy):
        """E / (hbar w1), the quadratic families' energy variable."""
        return energy / self.hbar_omega

    def rho(self, energy):
        """(E / alpha1^2) (2m/hbar^2)^(1/3), the linear families' one."""
        return energy / self.scales.alpha1 ** 2 * self.k


def potential_value(family: PotentialFamily, x: float) -> float:
    """Smooth part of V(x) in energy units (delta spikes excluded)."""
    if not math.isfinite(x):
        raise FamilyError(f"x must be finite, got {x}")
    return family.potential(x)


def _smooth_tag(tag, base):
    """The tag of the family's smooth part, whose table entry describes
    it: the base of a DELTA_DECORATED family, the tag itself otherwise.
    FamilyError for an unknown tag or a base that does not fit it."""
    if tag not in FAMILY_TAGS:
        raise FamilyError(f"unknown family tag {tag!r}")
    if tag == DELTA_DECORATED and not (isinstance(base, str) and base in _DELTA_DEFAULTS):
        raise FamilyError("DELTA_DECORATED requires base HO or LINEAR_ABS")
    if tag != DELTA_DECORATED and base is not None:
        raise FamilyError("base is only meaningful for DELTA_DECORATED")
    return base or tag


def default_family(tag: str, base: str | None = None, **overrides) -> PotentialFamily:
    """Family at the figure-convention defaults of the table, with
    optional overrides; a DELTA_DECORATED family takes its base's entry
    and the base's delta defaults (_DELTA_DEFAULTS)."""
    d = {**_DEFAULTS[_smooth_tag(tag, base)], **_DELTA_DEFAULTS.get(base, {}), **overrides}
    return PotentialFamily(tag, PhysicalScales(**d), base=base)


_SCALE_FIELDS = tuple(f.name for f in fields(PhysicalScales))


def family_from_dict(obj) -> PotentialFamily:
    """Build a PotentialFamily from its JSON-schema dict.

    Schema: {"tag": <tag>, "base": <tag or null>, "scales": {<field>: number}}.
    Scales omitted from the dict fall back to the family defaults.
    """
    if not isinstance(obj, dict):
        raise FamilyError("family description must be a JSON object")
    try:
        tag = obj["tag"]
    except KeyError:
        raise FamilyError("family description missing field 'tag'") from None
    if not isinstance(tag, str) or tag not in FAMILY_TAGS:
        raise FamilyError(f"field 'tag' must be one of {sorted(FAMILY_TAGS)}, got {tag!r}")
    base = obj.get("base")
    raw = obj.get("scales", {})
    if not isinstance(raw, dict):
        raise FamilyError("field 'scales' must be an object")
    unknown = set(raw) - set(_SCALE_FIELDS)
    if unknown:
        raise FamilyError(f"unknown scale fields: {sorted(unknown)}")
    clean = {}
    for k, v in raw.items():
        if v is None:
            continue
        if not finite_number(v):
            raise FamilyError(f"scale field {k!r} must be a finite number, got {v!r}")
        clean[k] = float(v)
    return default_family(tag, base=base, **clean)


def family_to_dict(family: PotentialFamily) -> dict:
    """Inverse of family_from_dict (None fields omitted)."""
    scales = {k: getattr(family.scales, k) for k in _SCALE_FIELDS
              if getattr(family.scales, k) is not None}
    out = {"tag": family.tag, "scales": scales}
    if family.base is not None:
        out["base"] = family.base
    return out


def with_scales(family: PotentialFamily, **changes) -> PotentialFamily:
    """Copy of `family` with some scale fields replaced."""
    return PotentialFamily(family.tag, replace(family.scales, **changes), base=family.base)
