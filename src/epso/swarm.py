"""Swarm core: the two-group update step, its schedules, and the seeded run loop.

The optimizer maintains a population of particles over a box-bounded search
space, held as arrays whose row i is particle i. EPSO re-partitions the
population each iteration into a shrinking exploitative group (the classic
inertia + cognitive + social velocity rule) and a growing exploratory group
whose particles mutate a scheduled number of coordinates ("genes") via a
randomized recombination of gbest and pbest. PSO is the flat schedule, both
group fractions at 1.0, where group 1 is the whole swarm; optimize applies it.

step is the whole update rule, one array update over all rows: both
groups' velocities, the gene mutation and the move. It checks the state's
shapes once, on entry, against the config. A run draws from one
np.random.Generator seeded with config.seed, in blocks whose shapes do not
depend on the group sizes: init_swarm draws one P x D uniform block, and
every step draws r1 | r2, the gene keys, then alpha | beta (see step). Row
i always reads row i of each block, so PSO and EPSO consume the same
numbers and no result depends on the order rows are evaluated in. An
objective marked with batch_objective gets all rows in one call per
iteration; any other objective is called once per particle, with a 1-D row,
in index order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, EvaluationError, check_field_types

Objective = Callable[[np.ndarray], float]

MODES = ("pso", "epso")


def batch_objective(fn: Objective) -> Objective:
    """Mark fn as batch-capable and return it.

    A batch objective also takes a (P, D) array and returns its P row values,
    each equal to the 1-D call on that row; optimize then evaluates the swarm
    in one call per iteration instead of one call per particle.
    """
    fn.batch = True
    return fn


def _round_half_up(x: float) -> int:
    """Round with halves going up (so schedules are deterministic). Callers
    clamp the result at 0 or above, where halves up and away agree."""
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class EpsoConfig:
    """All hyperparameters of one optimization run.

    bounds may be given as a single (low, high) pair, broadcast to every
    dimension, or as a (dimension, 2) array; either way the config keeps a
    read-only (dimension, 2) view.
    """

    dimension: int
    bounds: np.ndarray
    population_size: int = 50
    max_iterations: int = 100
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    c1: float = 2.0
    c2: float = 2.0
    g_pini: float = 1.0
    g_pfine: float = 0.9
    m_min: int = 1
    m_max: int | None = None  # defaults to half the dimension
    velocity_clamp_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.dimension < 1:
            raise ConfigError("dimension must be a positive integer")
        try:
            b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        except (TypeError, ValueError):
            raise ConfigError(f"bounds must be a (low, high) pair or a ({self.dimension}, 2) "
                              f"array of numbers, got {self.bounds!r}") from None
        if b.shape not in ((1, 2), (self.dimension, 2)):
            raise ConfigError(
                f"bounds must have shape ({self.dimension}, 2), got {b.shape}"
            )
        with np.errstate(over="ignore"):  # rng.uniform needs a finite high - low
            finite = np.isfinite(b).all() and np.isfinite(b[:, 1] - b[:, 0]).all()
        if not finite:
            raise ConfigError("bounds must be finite, and so must high - low")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ConfigError("bounds must satisfy low < high in every dimension")
        # a view, so a single pair spans any dimension without a copy
        object.__setattr__(self, "bounds", np.broadcast_to(b, (self.dimension, 2)))
        if self.population_size < 1:
            raise ConfigError("population_size must be a positive integer")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError("c1 and c2 must be non-negative")
        if not (0.0 <= self.g_pfine <= self.g_pini <= 1.0):
            raise ConfigError("need 0 <= g_pfine <= g_pini <= 1")
        if self.m_max is None:
            default_m = min(self.dimension, max(self.m_min, _round_half_up(0.5 * self.dimension)))
            object.__setattr__(self, "m_max", default_m)
        if not (1 <= self.m_min <= self.m_max <= self.dimension):
            raise ConfigError("need 1 <= m_min <= m_max <= dimension")
        if not (0.0 < self.velocity_clamp_fraction <= 1.0):
            raise ConfigError("velocity_clamp_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    @property
    def velocity_limit(self) -> np.ndarray:
        return self.velocity_clamp_fraction * (self.bounds[:, 1] - self.bounds[:, 0])


@dataclass
class SwarmState:
    """The whole swarm; row i of every population-by-dimension array is particle i."""

    positions: np.ndarray  # (P, D)
    velocities: np.ndarray  # (P, D)
    pbest_positions: np.ndarray  # (P, D)
    pbest_fitness: np.ndarray  # (P,)
    gbest_position: np.ndarray  # (D,)
    gbest_fitness: float
    iteration: int = 0


class Trace:
    """A gbest curve, read as the (iteration, gbest) pairs 0..T.

    The values are held in one read-only float64 array; reading gives Python
    ints and floats, and a slice gives a list of pairs.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        # a range resolves negative indices and slices, and raises IndexError
        at = range(len(self))[index]
        if isinstance(at, range):
            return [(i, float(self.values[i])) for i in at]
        return at, float(self.values[at])

    def __iter__(self):
        return zip(range(len(self)), self.values.tolist())

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class RunResult:
    best_position: np.ndarray
    best_fitness: float
    trace: Trace
    wall_time: float
    seed: int


def inertia_weight(iteration: int, config: EpsoConfig) -> float:
    """Linear decay from inertia_start at t=0 to inertia_end at t=max_iterations."""
    if config.max_iterations == 0:
        return config.inertia_start
    frac = iteration / config.max_iterations
    return config.inertia_start + frac * (config.inertia_end - config.inertia_start)


def group1_size(iteration: int, config: EpsoConfig) -> int:
    """Scheduled size of the exploitative group, shrinking quadratically in t."""
    T = config.max_iterations
    frac = (iteration / T) ** 2 if T > 0 else 0.0
    raw = (config.g_pini - frac * (config.g_pini - config.g_pfine)) * config.population_size
    return min(max(_round_half_up(raw), 0), config.population_size)


def mutation_gene_count(iteration: int, config: EpsoConfig) -> int:
    """Scheduled number of genes the exploratory group mutates, growing in t."""
    T = config.max_iterations
    frac = (iteration / T) ** 2 if T > 0 else 0.0
    raw = config.m_min + frac * (config.m_max - config.m_min)
    return min(max(_round_half_up(raw), config.m_min), config.m_max)


def assign_groups(pbest_fitness: np.ndarray, g1: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices, ascending: the g1 best pbests (ties by index) form group 1; the rest explore."""
    if g1 > len(pbest_fitness):
        raise ContractError("group 1 cannot exceed the population size")
    order = np.argsort(pbest_fitness, kind="stable")
    return np.sort(order[:g1]), np.sort(order[g1:])


def update_bests(swarm: SwarmState, fitness: np.ndarray) -> SwarmState:
    """Strictly-improving pbest/gbest replacement; non-finite values are rejected.

    The gbest goes to the first row holding the smallest finite value, and
    only if that value is below the current gbest.
    """
    finite = np.isfinite(fitness)
    improved = finite & (fitness < swarm.pbest_fitness)
    np.copyto(swarm.pbest_positions, swarm.positions, where=improved[:, None])
    np.copyto(swarm.pbest_fitness, fitness, where=improved)
    candidates = np.where(finite, fitness, np.inf)
    best = int(np.argmin(candidates))
    if candidates[best] < swarm.gbest_fitness:
        swarm.gbest_position = swarm.positions[best].copy()
        swarm.gbest_fitness = float(candidates[best])
    return swarm


def _evaluate(objective: Objective, positions: np.ndarray) -> np.ndarray:
    """The objective's value at every row.

    A batch objective gets all rows in one call, which must return shape
    (P,). If that call raises, the rows are run again one at a time, so the
    failure names its row as the per-row path does. Any other objective is
    called once per row, in index order; a failure names its row.
    """
    if getattr(objective, "batch", False):
        try:
            fitness = np.array(objective(positions), dtype=float)
        except Exception:  # noqa: BLE001 - the per-row calls below name the failing row
            pass
        else:
            if fitness.shape != (len(positions),):
                raise ContractError(f"a batch objective must return shape ({len(positions)},), "
                                    f"got {fitness.shape}")
            return fitness
    fitness = np.empty(len(positions))
    i = 0
    try:
        for i, x in enumerate(positions):
            fitness[i] = float(objective(x))
    except Exception as exc:  # noqa: BLE001 - rewrapped with the particle index
        raise EvaluationError(i, exc) from exc
    return fitness


def init_swarm(config: EpsoConfig, objective: Objective, rng: np.random.Generator) -> SwarmState:
    """Uniform random positions within bounds (one P x D draw), zero velocities,
    pbest = start; the first values go through update_bests from +inf bests."""
    positions = rng.uniform(config.bounds[:, 0], config.bounds[:, 1],
                            (config.population_size, config.dimension))
    swarm = SwarmState(positions, np.zeros_like(positions), positions.copy(),
                       np.full(len(positions), np.inf), positions[0].copy(), np.inf)
    return update_bests(swarm, _evaluate(objective, positions))


def step(swarm: SwarmState, objective: Objective, config: EpsoConfig,
         rng: np.random.Generator) -> SwarmState:
    """Advance the swarm by one iteration and return it; the state's arrays are new ones.

    The state is checked once, on entry, against the config: positions,
    velocities and pbest_positions must be (P, D), pbest_fitness (P,) and
    gbest_position (D,); anything else is a ContractError. Group sizes are
    recomputed from the pre-step iteration counter. Whatever the group
    sizes, the step draws, in this order: r1 and r2 as one (2, P, D) block,
    one P x D block of uniform gene keys, and alpha and beta as one (2, P, m)
    block on [-1, 1], where m is the scheduled gene count.

    Group-1 rows take the standard update from their rows of r1 and r2:
    v' = w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x). A group-2 row instead
    mutates the m genes j holding its smallest keys (a uniform m-subset),
    v'_j = alpha*gbest_j + (1 - beta*v_j)*pbest_j, with its rows of alpha and
    beta, and its other coordinates keep their velocity. Velocities are
    clamped to [-velocity_limit, velocity_limit], x' = x + v' is clamped into
    the bounds, and all rows are re-evaluated and update their bests together.
    """
    n, d = config.population_size, config.dimension
    shapes = (swarm.positions.shape, swarm.velocities.shape, swarm.pbest_positions.shape,
              swarm.pbest_fitness.shape, swarm.gbest_position.shape)
    want = ((n, d),) * 3 + ((n,), (d,))
    if shapes != want:
        raise ContractError(f"positions, velocities, pbest_positions, pbest_fitness and "
                            f"gbest_position must have shapes {want}, got {shapes}")
    if swarm.iteration >= config.max_iterations:
        raise ContractError("swarm already reached max_iterations")
    t, x, v, pbest, gbest = (swarm.iteration, swarm.positions, swarm.velocities,
                             swarm.pbest_positions, swarm.gbest_position)
    r1, r2, keys = rng.random((3, n, d))
    m = mutation_gene_count(t, config)
    alpha, beta = rng.uniform(-1.0, 1.0, (2, n, m))

    new = (v * inertia_weight(t, config) + (config.c1 * r1) * (pbest - x)
           + (config.c2 * r2) * (gbest - x))
    g1 = group1_size(t, config)
    if g1 < n:
        _, group2 = assign_groups(swarm.pbest_fitness, g1)
        genes = np.sort(np.argpartition(keys[group2], m - 1)[:, :m])
        rows = group2[:, None]
        new[group2] = v[group2]
        new[rows, genes] = (alpha[group2] * gbest[genes]
                            + (1.0 - beta[group2] * v[rows, genes]) * pbest[rows, genes])
    limit = config.velocity_limit
    np.maximum(new, -limit, out=new)
    swarm.velocities = np.minimum(new, limit, out=new)
    x = x + new
    np.maximum(x, config.bounds[:, 0], out=x)
    swarm.positions = np.minimum(x, config.bounds[:, 1], out=x)

    update_bests(swarm, _evaluate(objective, swarm.positions))
    swarm.iteration += 1
    return swarm


def optimize(config: EpsoConfig, objective: Objective, mode: str = "epso") -> RunResult:
    """Run a full seeded optimization and return the best solution plus trace.

    The trace has max_iterations + 1 entries; entry 0 is the state right
    after initialization. (config, seed, objective) fully determine the
    trace and the returned best, wall time aside. "pso" is the flat schedule.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "pso":
        config = replace(config, g_pini=1.0, g_pfine=1.0)
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    swarm = init_swarm(config, objective, rng)
    trace = np.empty(config.max_iterations + 1)
    trace[0] = swarm.gbest_fitness
    for _ in range(config.max_iterations):
        step(swarm, objective, config, rng)
        trace[swarm.iteration] = swarm.gbest_fitness
    return RunResult(
        best_position=swarm.gbest_position.copy(),
        best_fitness=swarm.gbest_fitness,
        trace=Trace(trace),
        wall_time=time.perf_counter() - start,
        seed=config.seed,
    )
