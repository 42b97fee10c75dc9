"""Exact arithmetic for Weierstrass weight totals and map bookkeeping.

Everything here is integer or Fraction arithmetic; no floats.  The two
workhorses are the total-weight formula g^3 - g (Farkas-Kra) and the
Riemann-Hurwitz area identity for cocompact Fuchsian signatures, plus
structural validation of regular-map descriptors (dart and Euler
identities).
"""

from fractions import Fraction

__all__ = [
    "FuchsianSignature",
    "RegularMapDescriptor",
    "MapValidation",
    "WeightDistribution",
    "total_weight",
    "weierstrass_count_bounds",
    "double_cover_genus",
    "hyperelliptic_signature",
    "validate_map",
    "rh_area_consistency",
    "InvariantError",
    "check",
    "record",
    "replace",
]


class InvariantError(AssertionError):
    """An invariant the package promises was violated: a bug, not bad input.

    A subclass of AssertionError, so the CLI still maps it to exit code 3.
    """


def check(cond, msg):
    """Raise InvariantError(msg) unless cond; unlike assert, survives python -O."""
    if not cond:
        raise InvariantError(msg)


def _is_int(v):
    """An int that is not a bool: True is no genus, order or count."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_int(what, v):
    if not _is_int(v):
        raise ValueError("%s must be an integer, got %r" % (what, v))


def _frozen_setattr(self, name, value):
    raise AttributeError("cannot assign to %r: %s is frozen" % (name, type(self).__qualname__))


def _frozen_delattr(self, name):
    raise AttributeError("cannot delete %r: %s is frozen" % (name, type(self).__qualname__))


def record(cls):
    """Make cls a frozen record of its annotated fields, like dataclass(frozen=True).

    The fields are the class's own annotations, in order; a class-level
    value is the field's default, shared by every instance.  __init__
    takes the fields by position or keyword, stores them in the instance
    __dict__ and then runs __post_init__ if the class has one.  After it,
    each field annotated int must hold an int that is not a bool (or None,
    where None is the default), else ValueError.  __repr__ reads
    Name(f=..., g=...); records are equal only to records of the same
    class with equal fields, and hash as their field tuple.
    Assigning or deleting an attribute raises AttributeError.
    __match_args__ lists the field names, which replace() reads.
    """
    own = cls.__dict__
    annotations = own.get("__annotations__", {})
    names = tuple(annotations)
    known = frozenset(names)
    defaults = {name: own[name] for name in names if name in own}
    post_init = getattr(cls, "__post_init__", None)
    ints = tuple(name for name in names if annotations[name] is int)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (cls.__qualname__, len(names), len(args)))
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values:
                raise TypeError("%s() got multiple values for argument %r"
                                % (cls.__qualname__, name))
            if name not in known:
                raise TypeError("%s() got an unexpected keyword argument %r"
                                % (cls.__qualname__, name))
        values.update(kwargs)
        if len(values) < len(names):
            for name in names:
                if name in values:
                    continue
                if name not in defaults:
                    raise TypeError("%s() missing required argument %r" % (cls.__qualname__, name))
                values[name] = defaults[name]
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)
        for name in ints:
            value = self.__dict__[name]
            if type(value) is not int and not _is_int(value) and not (
                    value is None and defaults.get(name, 0) is None):
                raise ValueError("%s.%s must be an integer, got %r"
                                 % (cls.__qualname__, name, value))

    def fields(self):
        return tuple(map(self.__dict__.__getitem__, names))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(names, fields(self))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    for method in (__init__, __repr__, __eq__, __hash__):
        method.__qualname__ = "%s.%s" % (cls.__qualname__, method.__name__)
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed; its
    __post_init__ validation runs again."""
    values = {name: getattr(obj, name) for name in type(obj).__match_args__}
    values.update(changes)
    return type(obj)(**values)


def _check_genus(g, minimum, what):
    _require_int("genus", g)
    if g < minimum:
        raise ValueError("genus too small for %s: need g >= %d, got %d" % (what, minimum, g))


def total_weight(g):
    """Total weight of the Weierstrass points on a genus-g surface.

    Returns g^3 - g exactly (Farkas-Kra).  Genus 1 is accepted and
    returns 0, but Weierstrass theory is degenerate there; reports that
    surface genus-1 results should flag them.  Genus 0 is rejected: no
    compact-surface Weierstrass theory.
    """
    _check_genus(g, 1, "Weierstrass total weight")
    return g * g * g - g


def weierstrass_count_bounds(g):
    """Bounds (2g+2, g^3-g) on the number of Weierstrass points, g >= 2.

    The minimum is attained exactly by hyperelliptic surfaces, whose
    2g+2 branch points are their Weierstrass points; the maximum is the
    generic simple-point count.
    """
    _check_genus(g, 2, "Weierstrass point count bounds")
    return (2 * g + 2, total_weight(g))


def double_cover_genus(branch_point_count):
    """Genus of a double cover of the sphere with the given branch count.

    Riemann-Hurwitz forces an even number of branch points; 2g + 2 = v
    gives g = (v - 2) / 2.
    """
    v = branch_point_count
    if not _is_int(v) or v < 2 or v % 2 != 0:
        raise ValueError(
            "a double cover of the sphere has an even number (>= 2) of branch points, got %r" % (v,)
        )
    return (v - 2) // 2


@record
class FuchsianSignature:
    """Signature (h; m_1, ..., m_r): orbit genus plus branching periods.

    Periods are kept as a sorted tuple (a multiset).  The normalized
    hyperbolic area is mu = 2h - 2 + sum(1 - 1/m_i); cocompact groups
    need mu > 0.
    """

    orbit_genus: int
    periods: tuple

    def __post_init__(self):
        _require_int("orbit genus", self.orbit_genus)
        if self.orbit_genus < 0:
            raise ValueError("orbit genus must be nonnegative")
        for m in self.periods:
            if not _is_int(m) or m < 2:
                raise ValueError("every period must be an integer >= 2, got %r" % (m,))
        object.__setattr__(self, "periods", tuple(sorted(self.periods)))

    def mu(self):
        """Normalized area 2h - 2 + sum(1 - 1/m_i), as an exact Fraction."""
        area = Fraction(2 * self.orbit_genus - 2)
        for m in self.periods:
            area += 1 - Fraction(1, m)
        return area

    def is_cocompact_hyperbolic(self):
        return self.mu() > 0


def hyperelliptic_signature(g):
    """The signature (0; 2^(2g+2)) of Maclachlan's hyperelliptic criterion."""
    _check_genus(g, 1, "hyperelliptic signature")
    return FuchsianSignature(0, (2,) * (2 * g + 2))


def rh_area_consistency(sig, index, surface_genus):
    """Whether a genus-g surface group can sit at the given index in sig.

    Riemann-Hurwitz: index * mu(sig) must equal 2g - 2 exactly.  The
    signature must be cocompact hyperbolic.
    """
    if not _is_int(index) or index < 1:
        raise ValueError("index must be a positive integer")
    _check_genus(surface_genus, 0, "Riemann-Hurwitz consistency")
    mu = sig.mu()
    if mu <= 0:
        raise ValueError("signature %r is not cocompact hyperbolic (mu = %s)" % (sig, mu))
    return index * mu == 2 * surface_genus - 2


@record
class RegularMapDescriptor:
    """A map of type {n, m}: face valency n, vertex valency m, plus counts.

    Valid descriptors satisfy the dart identities m*V = 2E and n*F = 2E
    and the Euler identity V - E + F = 2 - 2*genus.
    """

    face_valency: int
    vertex_valency: int
    V: int
    E: int
    F: int
    genus: int

    def __post_init__(self):
        for name in ("face_valency", "vertex_valency", "V", "E", "F"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")

    @property
    def type_pair(self):
        return (self.face_valency, self.vertex_valency)

    def identity_failures(self):
        """List of human-readable identity violations; empty when valid."""
        problems = []
        if self.vertex_valency * self.V != 2 * self.E:
            problems.append(
                "dart identity m*V = 2E fails: %d*%d != %d"
                % (self.vertex_valency, self.V, 2 * self.E)
            )
        if self.face_valency * self.F != 2 * self.E:
            problems.append(
                "dart identity n*F = 2E fails: %d*%d != %d"
                % (self.face_valency, self.F, 2 * self.E)
            )
        if self.V - self.E + self.F != 2 - 2 * self.genus:
            problems.append(
                "Euler identity V-E+F = 2-2g fails: %d != %d"
                % (self.V - self.E + self.F, 2 - 2 * self.genus)
            )
        return problems


@record
class MapValidation:
    """Outcome of validate_map.

    status is "valid", "normalized" (the type pair had to be swapped to
    satisfy the dart identities; descriptor carries the corrected
    orientation), or "invalid" (problems lists what failed for both
    orientations).
    """

    status: str
    descriptor: RegularMapDescriptor
    problems: tuple = ()

    @property
    def ok(self):
        return self.status in ("valid", "normalized")


def validate_map(d):
    """Validate a map descriptor, normalizing a swapped {n, m} convention.

    Some published tables list vertex valency first; if the stated pair
    fails but the swapped pair passes, the result reports status
    "normalized" with the corrected orientation instead of failing.
    """
    problems = d.identity_failures()
    if not problems:
        return MapValidation("valid", d)
    swapped = RegularMapDescriptor(
        face_valency=d.vertex_valency,
        vertex_valency=d.face_valency,
        V=d.V,
        E=d.E,
        F=d.F,
        genus=d.genus,
    )
    swapped_problems = swapped.identity_failures()
    if not swapped_problems:
        return MapValidation("normalized", swapped, tuple(problems))
    return MapValidation("invalid", d, tuple(problems + swapped_problems))


@record
class WeightDistribution:
    """Point classes with counts and per-point weights on one surface.

    entries: tuple of (point_class_label, count, weight_per_point).
    complete=True asserts the classes account for every Weierstrass
    point, i.e. the weighted sum equals g^3 - g exactly.

    The per-point weight is sum(gamma_i - i) over the gap sequence of a
    point in the class; gap sequences themselves are never computed
    here, only their weights are bookkept.
    """

    genus: int
    entries: tuple
    complete: bool = False

    def __post_init__(self):
        _check_genus(self.genus, 1, "weight distribution")
        for label, count, weight in self.entries:
            if count < 1:
                raise ValueError("class %r has nonpositive count" % (label,))
            if weight < 0:
                raise ValueError("class %r has negative weight" % (label,))
            if not (_is_int(count) and _is_int(weight)):
                raise ValueError("class %r needs an integer count and weight, got %r and %r"
                                 % (label, count, weight))
        total = self.weighted_sum()
        budget = total_weight(self.genus)
        if total > budget:
            raise ValueError(
                "weighted sum %d exceeds total weight %d for genus %d"
                % (total, budget, self.genus)
            )
        if self.complete and total != budget:
            raise ValueError(
                "distribution declared complete but weighted sum %d != %d" % (total, budget)
            )

    def weighted_sum(self):
        return sum(count * weight for _, count, weight in self.entries)
