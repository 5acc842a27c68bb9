"""Continuous test functions: classic bases, and the shifted/rotated, hybrid
and composition functions built from them by a seeded name registry.

Shift vectors and rotation matrices are generated from a seed (uniform shift
inside the central 80% of the box, rotation from QR-orthonormalization of a
Gaussian matrix), so every registry entry is reproducible without external
data files.

Every function takes one point (D,) or a stack of points (..., D) and reduces
along the last axis: a 1-D input gives a Python float, a (P, D) input gives
the P row values. Each row's value is bit-identical to the 1-D call on that
row, because each row goes through the same reductions and the same BLAS
call (gemv for a rotation, dot for a distance) as the 1-D input does. Squares
are IEEE products in both forms: np.square is a ufunc, so a float64 scalar
squares as an array element does (a scalar's ** 2 would call libm pow).

Each base function declares the least dimension it accepts at its definition
(`@_base(least=...)`, read back as `least_dimension`). The registry is one
ordered table, `_REGISTRY`: each name's kind and parts, in registry order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, UnknownFunctionError
from .swarm import Objective, batch_objective

SCHWEFEL_OPTIMUM = 420.9687
DEFAULT_LOW, DEFAULT_HIGH = -100.0, 100.0


# ---------------------------------------------------------------------------
# Base functions (all non-negative, 0 at their canonical optimum)
# ---------------------------------------------------------------------------

def _points(z) -> np.ndarray:
    """z as floats with each point along the last axis; a scalar is a 1-vector."""
    z = np.asarray(z, dtype=float)
    return z if z.ndim else z.reshape(1)


def _value(v):
    """A Python float for one point, the array of values for a stack of points."""
    return v if getattr(v, "ndim", 0) else float(v)


def _base(least: int = 1):
    """Declare a base function that needs at least `least` coordinates, kept as
    its least_dimension. The body gets _points(z), a point or a stack of
    points checked for width, and its result goes back through _value."""
    def declare(body):
        @functools.wraps(body)
        def base(z):
            z = _points(z)
            if z.shape[-1] < least:
                need = "a non-empty vector" if least == 1 else f"at least {least} dimensions"
                raise ContractError(f"{body.__name__} needs {need}")
            return _value(body(z))

        base.least_dimension = least
        return base

    return declare


@_base()
def elliptic(z) -> float:
    """Sum of (1e6)^(d/(D-1)) * z_d^2; a highly ill-conditioned bowl."""
    d = z.shape[-1]
    if d == 1:
        return np.square(z[..., 0])
    weights = 1e6 ** (np.arange(d) / (d - 1))
    return (weights * z * z).sum(axis=-1)


@_base(least=2)
def cigar(z) -> float:
    """z_1^2 + 1e6 * sum of the remaining squares."""
    return np.square(z[..., 0]) + 1e6 * (z[..., 1:] ** 2).sum(axis=-1)


@_base()
def ackley(z) -> float:
    term1 = -20.0 * np.exp(-0.2 * np.sqrt((z * z).mean(axis=-1)))
    term2 = -np.exp(np.cos(2.0 * np.pi * z).mean(axis=-1))
    return term1 + term2 + 20.0 + np.e


@_base()
def rastrigin(z) -> float:
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=-1)


@_base()
def schwefel(z) -> float:
    """418.9829*D - sum z_d*sin(sqrt|z_d|); defined only on [-500, 500]^D.

    One component outside the domain fails the whole call, stacked or not.
    """
    if np.any(np.abs(z) > 500.0):
        raise ContractError("schwefel is defined only for components in [-500, 500]")
    return 418.9829 * z.shape[-1] - (z * np.sin(np.sqrt(np.abs(z)))).sum(axis=-1)


@_base()
def _schwefel_in_domain(z) -> float:
    """schwefel around its optimizer at a scaled offset; the scale keeps every
    component in [-500, 500] for a rotated offset of a point in the default box."""
    scale = 79.0 / (np.sqrt(z.shape[-1]) * (DEFAULT_HIGH - DEFAULT_LOW))
    return schwefel(SCHWEFEL_OPTIMUM + scale * z)


# ---------------------------------------------------------------------------
# Hybrid and composition
# ---------------------------------------------------------------------------

def _block_sizes(parts, dim: int) -> list[int]:
    """Contiguous block sizes of a hybrid's (base, fraction) parts at dim.

    Each fraction is rounded and the last block absorbs the rest. Where that
    gives a base fewer coordinates than its least_dimension, the
    largest-remainder split (ties to the earlier part) is used if every base
    fits in it; otherwise the rounded split stands.
    """
    shares = [fraction * dim for _, fraction in parts]
    least = [base.least_dimension for base, _ in parts]
    sizes = [int(round(share)) for share in shares[:-1]]
    sizes.append(dim - sum(sizes))
    if any(s < n for s, n in zip(sizes, least)):
        fallback = [int(share) for share in shares]
        by_remainder = sorted(range(len(parts)), key=lambda i: fallback[i] - shares[i])
        for i in by_remainder[:dim - sum(fallback)]:
            fallback[i] += 1
        if all(s >= n for s, n in zip(fallback, least)):
            sizes = fallback
    if any(s < 1 for s in sizes):
        raise ContractError(f"hybrid blocks must be non-empty; got sizes {sizes} for dim {dim}")
    return sizes


def _hybrid(parts, sizes: list[int]) -> Objective:
    """Split the input into contiguous blocks of the given sizes, one per
    (base, fraction) part, and sum the bases' values on their blocks."""
    def objective(z) -> float:
        total = 0.0
        start = 0
        for (fn, _), size in zip(parts, sizes):
            total = total + fn(z[..., start:start + size])
            start += size
        return total

    return objective


@dataclass(frozen=True)
class CompositionComponent:
    """One landscape of a composition; the shift is its center in x-space."""

    objective: Objective
    sigma: float
    bias: float
    shift: np.ndarray


def composition_weights(x, components: Sequence[CompositionComponent]) -> np.ndarray:
    """Distance-based mixing weights, non-negative and summing to 1.

    w_i is proportional to exp(-|x - shift_i|^2 / (2*D*sigma_i^2)) / |x - shift_i|.
    At x exactly equal to some shift_i the weight collapses onto the first
    such component. A stack of points (..., D) gives weights (..., n).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    diff = x[..., None, :] - np.array([c.shift for c in components])  # (..., n, D)
    # sqrt of one dot per point and center: the same call np.linalg.norm makes
    dists = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
    scale = np.array([2.0 * d * c.sigma**2 for c in components])
    # at a center, or where every weight underflows, all weight goes to the nearest
    nearest = (dists == 0.0).any(axis=-1, keepdims=True)
    w = np.exp(-np.square(dists) / scale)
    np.divide(w, dists, out=w, where=~nearest)
    total = w.sum(axis=-1, keepdims=True)
    nearest |= total == 0.0
    np.divide(w, total, out=w, where=~nearest)
    if nearest.any():
        rows = nearest[..., 0]
        w[rows] = np.eye(len(components))[np.argmin(dists[rows], axis=-1)]
    return w


def _composition(comps: list[CompositionComponent]) -> Objective:
    """Weighted sum of component landscapes plus their local biases."""
    def objective(x) -> float:
        w = composition_weights(x, comps)
        active = w != 0.0  # a zero weight skips its component
        used = active.reshape(-1, len(comps)).any(axis=0).tolist()
        total = 0.0
        for i, c in enumerate(comps):
            if used[i]:
                total = total + np.multiply(w[..., i], c.objective(x) + c.bias,
                                            out=np.zeros(w.shape[:-1]), where=active[..., i])
        return _value(total)

    return objective


# ---------------------------------------------------------------------------
# Seeded registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    dimension: int
    bounds: np.ndarray
    bias: float
    optimum: np.ndarray  # argmin of this generated instance


def _random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _random_shift(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    mid = (bounds[:, 0] + bounds[:, 1]) / 2.0
    half = 0.4 * (bounds[:, 1] - bounds[:, 0])  # central 80% of the box
    return rng.uniform(mid - half, mid + half)


def _default_bounds(dim: int) -> np.ndarray:
    return np.tile([DEFAULT_LOW, DEFAULT_HIGH], (dim, 1))


def _shifted_rotated(base: Objective, shift: np.ndarray, rotation: np.ndarray) -> Objective:
    """base(rotation @ (x - shift)), for one point or each point of a stack.

    The stacked form is one gemv per point, the same call as the 1-D form, so
    each point's z keeps its bits; (x - shift) @ rotation.T would not.
    """
    def objective(x) -> float:
        return base(np.matmul(rotation, (x - shift)[..., None])[..., 0])

    return objective


# name -> (kind, parts), in registry order: entry i has bias 100 * (i + 1) and
# draws from spawn key i. A "rotated" entry has one base function, a hybrid's
# parts are (base, fraction), a composition's are (base, sigma, bias).
_REGISTRY = {
    "elliptic_rotated": ("rotated", [(elliptic,)]),
    "cigar_rotated": ("rotated", [(cigar,)]),
    "ackley_shifted_rotated": ("rotated", [(ackley,)]),
    "rastrigin_shifted_rotated": ("rotated", [(rastrigin,)]),
    "schwefel_shifted_rotated": ("rotated", [(_schwefel_in_domain,)]),
    "hybrid_1": ("hybrid", [(ackley, 0.3), (rastrigin, 0.3), (elliptic, 0.4)]),
    "hybrid_2": ("hybrid", [(elliptic, 0.2), (cigar, 0.2), (ackley, 0.3), (rastrigin, 0.3)]),
    "hybrid_3": ("hybrid", [(elliptic, 0.2), (cigar, 0.2), (ackley, 0.2), (rastrigin, 0.2),
                            (rastrigin, 0.2)]),
    "composition_1": ("composition", [(rastrigin, 10.0, 0.0), (ackley, 20.0, 100.0),
                                      (elliptic, 30.0, 200.0)]),
    "composition_2": ("composition", [(ackley, 10.0, 0.0), (rastrigin, 20.0, 100.0),
                                      (cigar, 30.0, 200.0)]),
    "composition_3": ("composition", [(rastrigin, 10.0, 0.0), (ackley, 20.0, 100.0),
                                      (elliptic, 30.0, 200.0), (cigar, 40.0, 300.0),
                                      (rastrigin, 50.0, 400.0)]),
}


def available_functions() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def registry(name: str, dimension: int, seed: int) -> tuple[ObjectiveSpec, Objective]:
    """Build the named function with seeded shift/rotation data.

    The per-function bias is 100 * (1 + registry index), echoing the usual
    competition convention; it is purely an additive offset. The objective
    is marked with batch_objective, so optimize evaluates the whole swarm in
    one call per iteration. A dimension too small for one of its base
    functions (an empty hybrid block, or fewer coordinates than a base's
    least_dimension) is a ContractError here, before anything is drawn; a
    point or stack whose last axis is not `dimension` wide is a ContractError
    at the objective.
    """
    if name not in _REGISTRY:
        raise UnknownFunctionError(f"unknown function {name!r}; available: {', '.join(_REGISTRY)}")
    if dimension < 1:
        raise ContractError("dimension must be positive")
    kind, parts = _REGISTRY[name]
    sizes = _block_sizes(parts, dimension) if kind == "hybrid" else [dimension] * len(parts)
    for (base, *_), size in zip(parts, sizes):
        if size < base.least_dimension:
            raise ContractError(f"{name} at dimension {dimension} gives {base.__name__} {size}"
                                f" dimension(s); it needs {base.least_dimension}")
    index = list(_REGISTRY).index(name)
    bias = 100.0 * (index + 1)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(index,)))
    bounds = _default_bounds(dimension)

    if kind == "composition":
        comps = []
        for base, sigma, cbias in parts:
            s = _random_shift(rng, bounds)
            # x is the composition's array, one point or a stack
            comps.append(CompositionComponent(lambda x, b=base, sh=s: b(x - sh), sigma, cbias, s))
        raw, optimum = _composition(comps), comps[0].shift
    else:
        inner = _hybrid(parts, sizes) if kind == "hybrid" else parts[0][0]
        optimum = _random_shift(rng, bounds)
        raw = _shifted_rotated(inner, optimum, _random_rotation(rng, dimension))
    spec = ObjectiveSpec(name, dimension, bounds, bias, optimum)

    @batch_objective
    def objective(x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (dimension,):
            raise ContractError(f"{name} takes points of width {dimension}; got shape {x.shape}")
        return raw(x) + bias

    return spec, objective
