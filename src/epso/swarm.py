"""Swarm core: standard PSO updates, two-group scheduling, and the seeded run loop.

The optimizer maintains a population of particles over a box-bounded search
space. In "pso" mode every particle follows the classic inertia + cognitive +
social velocity rule. In "epso" mode the population is re-partitioned each
iteration into a shrinking exploitative group (standard updates) and a growing
exploratory group whose particles mutate a scheduled number of coordinates
("genes") via a randomized recombination of gbest and pbest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, EvaluationError

Objective = Callable[[np.ndarray], float]

MODES = ("pso", "epso")


def _round_half_away(x: float) -> int:
    """Round with halves going away from zero (so schedules are deterministic)."""
    if x >= 0:
        return int(np.floor(x + 0.5))
    return int(np.ceil(x - 0.5))


@dataclass(frozen=True)
class EpsoConfig:
    """All hyperparameters of one optimization run.

    bounds may be given as a single (low, high) pair, broadcast to every
    dimension, or as a (dimension, 2) array.
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
        if self.dimension < 1:
            raise ConfigError("dimension must be a positive integer")
        b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if b.shape == (1, 2) and self.dimension > 1:
            b = np.repeat(b, self.dimension, axis=0)
        if b.shape != (self.dimension, 2):
            raise ConfigError(
                f"bounds must have shape ({self.dimension}, 2), got {b.shape}"
            )
        if not np.all(b[:, 0] < b[:, 1]):
            raise ConfigError("bounds must satisfy low < high in every dimension")
        object.__setattr__(self, "bounds", b)
        if self.population_size < 1:
            raise ConfigError("population_size must be a positive integer")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError("c1 and c2 must be non-negative")
        if not (0.0 <= self.g_pfine <= self.g_pini <= 1.0):
            raise ConfigError("need 0 <= g_pfine <= g_pini <= 1")
        if self.m_max is None:
            default_m = min(self.dimension, max(self.m_min, _round_half_away(0.5 * self.dimension)))
            object.__setattr__(self, "m_max", default_m)
        if not (1 <= self.m_min <= self.m_max <= self.dimension):
            raise ConfigError("need 1 <= m_min <= m_max <= dimension")
        if not (0.0 < self.velocity_clamp_fraction <= 1.0):
            raise ConfigError("velocity_clamp_fraction must be in (0, 1]")
        if int(self.seed) < 0:
            raise ConfigError("seed must be a non-negative integer")

    @property
    def velocity_limit(self) -> np.ndarray:
        return self.velocity_clamp_fraction * (self.bounds[:, 1] - self.bounds[:, 0])


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: float


@dataclass
class SwarmState:
    particles: list[Particle]
    gbest_position: np.ndarray
    gbest_fitness: float
    iteration: int = 0


@dataclass
class RunResult:
    best_position: np.ndarray
    best_fitness: float
    trace: list[tuple[int, float]]
    wall_time: float
    seed: int


class RandomSource:
    """Deterministic per-particle random streams derived from one master seed.

    Each particle draws from its own stream, so results cannot depend on the
    order in which particles are evaluated, and a mode that skips some draws
    for one particle never shifts the draws of another.
    """

    def __init__(self, master_seed: int):
        if int(master_seed) < 0:
            raise ConfigError("seed must be a non-negative integer")
        self.master_seed = int(master_seed)
        self._streams: dict[int, np.random.Generator] = {}

    def stream(self, index: int) -> np.random.Generator:
        gen = self._streams.get(index)
        if gen is None:
            ss = np.random.SeedSequence(self.master_seed, spawn_key=(index,))
            gen = np.random.default_rng(ss)
            self._streams[index] = gen
        return gen


def inertia_weight(iteration: int, config: EpsoConfig) -> float:
    """Linear decay from inertia_start at t=0 to inertia_end at t=max_iterations."""
    if config.max_iterations == 0:
        return config.inertia_start
    frac = iteration / config.max_iterations
    return config.inertia_start + frac * (config.inertia_end - config.inertia_start)


def _clamp_velocity(v: np.ndarray, bounds: np.ndarray, fraction: float) -> np.ndarray:
    limit = fraction * (bounds[:, 1] - bounds[:, 0])
    return np.minimum(np.maximum(v, -limit), limit)


def update_velocity_standard(
    particle: Particle,
    gbest_position: np.ndarray,
    w: float,
    c1: float,
    c2: float,
    rng,
    bounds: np.ndarray,
    velocity_clamp_fraction: float = 0.2,
) -> np.ndarray:
    """v' = w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), then clamped.

    r1 and r2 are drawn per dimension, uniform on [0, 1].
    """
    x, v, pb = particle.position, particle.velocity, particle.pbest_position
    g = np.asarray(gbest_position, dtype=float)
    if not (x.shape == v.shape == pb.shape == g.shape):
        raise ContractError("position, velocity, pbest and gbest must share one dimension")
    r1 = rng.random(x.size)
    r2 = rng.random(x.size)
    new_v = w * v + c1 * r1 * (pb - x) + c2 * r2 * (g - x)
    return _clamp_velocity(new_v, bounds, velocity_clamp_fraction)


def apply_velocity(position: np.ndarray, velocity: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """x' = x + v, clamped back into the search box."""
    x = np.asarray(position, dtype=float)
    v = np.asarray(velocity, dtype=float)
    if x.shape != v.shape:
        raise ContractError("position and velocity must share one dimension")
    return np.minimum(np.maximum(x + v, bounds[:, 0]), bounds[:, 1])


def group1_size(iteration: int, config: EpsoConfig) -> int:
    """Scheduled size of the exploitative group, shrinking quadratically in t."""
    T = config.max_iterations
    frac = (iteration / T) ** 2 if T > 0 else 0.0
    raw = (config.g_pini - frac * (config.g_pini - config.g_pfine)) * config.population_size
    return min(max(_round_half_away(raw), 0), config.population_size)


def group2_size(population_size: int, g1: int) -> int:
    if g1 > population_size:
        raise ContractError("group 1 cannot exceed the population size")
    return population_size - g1


def mutation_gene_count(iteration: int, config: EpsoConfig) -> int:
    """Scheduled number of genes the exploratory group mutates, growing in t."""
    T = config.max_iterations
    frac = (iteration / T) ** 2 if T > 0 else 0.0
    raw = config.m_min + frac * (config.m_max - config.m_min)
    return min(max(_round_half_away(raw), config.m_min), config.m_max)


def select_mutation_genes(dimension: int, m: int, rng) -> np.ndarray:
    """m distinct coordinate indices, uniform without replacement, sorted."""
    if m > dimension:
        raise ContractError(f"cannot select {m} genes from {dimension} dimensions")
    if m == 0:
        return np.empty(0, dtype=np.intp)
    return np.sort(rng.choice(dimension, size=m, replace=False))


def update_velocity_extended(
    particle: Particle,
    gbest_position: np.ndarray,
    gene_indices,
    rng,
    bounds: np.ndarray,
    velocity_clamp_fraction: float = 0.2,
) -> np.ndarray:
    """Mutate the selected genes: v'_i = alpha*gbest_i + (1 - beta*v_i)*pbest_i.

    alpha and beta are fresh per gene, uniform on [-1, 1]; untouched genes keep
    their previous velocity. The whole vector is then clamped like the
    standard update.
    """
    v = np.asarray(particle.velocity, dtype=float).copy()
    g = np.asarray(gbest_position, dtype=float)
    if v.shape != g.shape:
        raise ContractError("velocity and gbest must share one dimension")
    idx = np.asarray(list(gene_indices), dtype=np.intp)
    if idx.size:
        if idx.min() < 0 or idx.max() >= v.size:
            raise ContractError("gene index out of range")
        alpha = rng.uniform(-1.0, 1.0, idx.size)
        beta = rng.uniform(-1.0, 1.0, idx.size)
        v[idx] = alpha * g[idx] + (1.0 - beta * particle.velocity[idx]) * particle.pbest_position[idx]
    return _clamp_velocity(v, bounds, velocity_clamp_fraction)


def assign_groups(swarm: SwarmState, g1: int) -> tuple[list[int], list[int]]:
    """Best-pbest particles (ties by index) form group 1; the rest explore."""
    n = len(swarm.particles)
    if g1 > n:
        raise ContractError("group 1 cannot exceed the population size")
    order = sorted(range(n), key=lambda i: (swarm.particles[i].pbest_fitness, i))
    return sorted(order[:g1]), sorted(order[g1:])


def update_bests(particle: Particle, fitness: float, swarm: SwarmState):
    """Strictly-improving pbest/gbest replacement; non-finite candidates are rejected."""
    f = float(fitness)
    if not np.isfinite(f):
        return particle, swarm
    if f < particle.pbest_fitness:
        particle.pbest_position = particle.position.copy()
        particle.pbest_fitness = f
    if f < swarm.gbest_fitness:
        swarm.gbest_position = particle.position.copy()
        swarm.gbest_fitness = f
    return particle, swarm


def _evaluate(objective: Objective, position: np.ndarray, index: int) -> float:
    try:
        return float(objective(position))
    except Exception as exc:  # noqa: BLE001 - rewrapped with the particle index
        raise EvaluationError(index, exc) from exc


def init_swarm(config: EpsoConfig, objective: Objective, rng: RandomSource) -> SwarmState:
    """Uniform random positions within bounds, zero velocities, pbest = start."""
    particles = []
    for i in range(config.population_size):
        pos = rng.stream(i).uniform(config.bounds[:, 0], config.bounds[:, 1])
        fit = _evaluate(objective, pos, i)
        if not np.isfinite(fit):
            fit = np.inf
        particles.append(Particle(pos, np.zeros(config.dimension), pos.copy(), fit))
    best = min(range(len(particles)), key=lambda i: (particles[i].pbest_fitness, i))
    return SwarmState(
        particles=particles,
        gbest_position=particles[best].pbest_position.copy(),
        gbest_fitness=particles[best].pbest_fitness,
        iteration=0,
    )


def step(
    swarm: SwarmState,
    objective: Objective,
    config: EpsoConfig,
    rng: RandomSource,
    mode: str = "epso",
) -> SwarmState:
    """Advance the swarm by one iteration (in place; returns the same state).

    Group sizes are recomputed from the pre-step iteration counter. All
    particles are re-evaluated after the moves; bests are applied afterwards
    by a single writer, in particle-index order.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if swarm.iteration >= config.max_iterations:
        raise ContractError("swarm already reached max_iterations")
    t = swarm.iteration
    w = inertia_weight(t, config)
    g1 = config.population_size if mode == "pso" else group1_size(t, config)
    group1, group2 = assign_groups(swarm, g1)

    for i in group1:
        p = swarm.particles[i]
        p.velocity = update_velocity_standard(
            p, swarm.gbest_position, w, config.c1, config.c2,
            rng.stream(i), config.bounds, config.velocity_clamp_fraction,
        )
        p.position = apply_velocity(p.position, p.velocity, config.bounds)

    if group2:
        m = mutation_gene_count(t, config)
        for i in group2:
            p = swarm.particles[i]
            genes = select_mutation_genes(config.dimension, m, rng.stream(i))
            p.velocity = update_velocity_extended(
                p, swarm.gbest_position, genes, rng.stream(i),
                config.bounds, config.velocity_clamp_fraction,
            )
            p.position = apply_velocity(p.position, p.velocity, config.bounds)

    fitnesses = [
        _evaluate(objective, swarm.particles[i].position, i)
        for i in range(len(swarm.particles))
    ]
    for i, f in enumerate(fitnesses):
        update_bests(swarm.particles[i], f, swarm)
    swarm.iteration += 1
    return swarm


def optimize(config: EpsoConfig, objective: Objective, mode: str = "epso") -> RunResult:
    """Run a full seeded optimization and return the best solution plus trace.

    The trace has max_iterations + 1 entries; entry 0 is the state right
    after initialization. (config, seed, objective) fully determine the
    trace and the returned best, wall time aside.
    """
    mode = mode.lower()
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    start = time.perf_counter()
    rng = RandomSource(config.seed)
    swarm = init_swarm(config, objective, rng)
    trace = [(0, swarm.gbest_fitness)]
    for _ in range(config.max_iterations):
        step(swarm, objective, config, rng, mode=mode)
        trace.append((swarm.iteration, swarm.gbest_fitness))
    return RunResult(
        best_position=swarm.gbest_position.copy(),
        best_fitness=swarm.gbest_fitness,
        trace=trace,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
    )
