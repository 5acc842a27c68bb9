import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epso import (
    ConfigError,
    ContractError,
    EpsoConfig,
    EvaluationError,
    group1_size,
    mutation_gene_count,
    optimize,
    position_bounds,
    registry,
    select_features,
    synth_dataset,
    WrapperConfig,
)
from epso.benchmarks import available_functions
from epso.swarm import (
    SwarmState,
    Trace,
    _evaluate,
    assign_groups,
    batch_objective,
    inertia_weight,
    init_swarm,
    step,
    update_bests,
)


def make_config(**kw):
    base = dict(dimension=3, bounds=[-10.0, 10.0], population_size=10, max_iterations=100, seed=1)
    base.update(kw)
    return EpsoConfig(**base)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_inverted_bounds():
    with pytest.raises(ConfigError):
        make_config(bounds=[5.0, -5.0])


@pytest.mark.parametrize("bounds", [
    (-np.inf, np.inf), (-1e308, 1e308), (0.0, np.nan), [[-1.0, 1.0], [-np.inf, 1.0], [0.0, 1.0]],
])
def test_config_rejects_non_finite_bounds_or_width(bounds):
    # (-1e308, 1e308) has finite ends but an infinite width, which rng.uniform cannot draw from
    with pytest.raises(ConfigError, match="bounds must be finite"):
        make_config(bounds=bounds)


@pytest.mark.parametrize("bounds", ["ab", [[1, 2], [3]], object()])
def test_config_rejects_bounds_that_are_not_numbers(bounds):
    with pytest.raises(ConfigError, match=r"^bounds must be a \(low, high\) pair or a \(2, 2\)"):
        EpsoConfig(dimension=2, bounds=bounds)


def test_config_rejects_bad_group_percentages():
    with pytest.raises(ConfigError):
        make_config(g_pini=0.5, g_pfine=0.9)


def test_config_rejects_bad_gene_bounds():
    with pytest.raises(ConfigError):
        make_config(m_min=3, m_max=2)
    with pytest.raises(ConfigError):
        make_config(m_min=1, m_max=4)  # dimension is 3


def test_config_m_max_defaults_to_half_dimension():
    assert make_config(dimension=10, bounds=[[-1, 1]] * 10).m_max == 5
    assert make_config(dimension=1, bounds=[[-1, 1]]).m_max == 1


def test_config_degenerate_schedule_allows_pure_pso():
    cfg = make_config(g_pini=1.0, g_pfine=1.0)
    for t in range(0, cfg.max_iterations + 1):
        assert group1_size(t, cfg) == cfg.population_size


# ---------------------------------------------------------------------------
# inertia schedule
# ---------------------------------------------------------------------------

def test_inertia_endpoints_and_midpoint():
    cfg = make_config(inertia_start=0.9, inertia_end=0.4)
    assert inertia_weight(0, cfg) == pytest.approx(0.9)
    assert inertia_weight(cfg.max_iterations, cfg) == pytest.approx(0.4)
    assert inertia_weight(cfg.max_iterations // 2, cfg) == pytest.approx(0.65)


# ---------------------------------------------------------------------------
# the update rule, one step from hand-set rows and draws
# ---------------------------------------------------------------------------

class Draws:
    """Stands in for step's generator: hands out the given r1, r2 and keys
    (r1 and r2 alone on a flat step), then alpha and beta, each broadcast to
    its row block's shape. A flat step advances bit_generator, which no draw
    here reads."""

    def __init__(self, r1=0.0, r2=0.0, keys=0.0, alpha=0.0, beta=0.0):
        self.unit, self.signed = (r1, r2, keys), (alpha, beta)
        self.bit_generator = np.random.PCG64(0)

    def random(self, shape):
        return np.stack([np.broadcast_to(b, shape[1:]) for b in self.unit[:shape[0]]])

    def uniform(self, low, high, shape):
        assert (low, high) == (-1.0, 1.0)
        return np.stack([np.broadcast_to(b, shape[1:]) for b in self.signed])


def step_from(cfg, x, v, pbest, gbest, draws):
    """The swarm after one step at t = 0 from rows x, v and pbest, fed draws."""
    x, v, pbest = (np.atleast_2d(np.array(a, dtype=float)) for a in (x, v, pbest))
    swarm = SwarmState(x, v, pbest, np.zeros(len(x)), np.array(gbest, dtype=float), 0.0)
    return step(swarm, lambda row: 1.0, cfg, draws)


def standard_config(w, c1, c2, rows=1, **kw):
    """Every row in group 1, with inertia w at every iteration."""
    return make_config(population_size=rows, inertia_start=w, inertia_end=w, c1=c1, c2=c2,
                       g_pini=1.0, g_pfine=1.0, **kw)


def extended_config(m, rows=1, **kw):
    """Every row in group 2, each mutating m genes."""
    return make_config(population_size=rows, g_pini=0.0, g_pfine=0.0, m_min=m, m_max=m, **kw)


def test_standard_velocity_zero_coefficients():
    s = step_from(standard_config(0.0, 0.0, 0.0), np.ones(3), np.ones(3), np.zeros(3),
                  np.zeros(3), Draws(r1=0.3, r2=0.7))
    assert np.array_equal(s.velocities, np.zeros((1, 3)))


def test_standard_velocity_hand_case():
    # v=0, x=0, pbest=1, gbest=2, w=1, c1=c2=1, r1=r2=1 -> 3 per dimension, on every row
    rows = np.zeros((2, 3))
    s = step_from(standard_config(1.0, 1.0, 1.0, rows=2), rows, rows, np.ones((2, 3)),
                  np.full(3, 2.0), Draws(r1=1.0, r2=1.0))
    assert np.array_equal(s.velocities, np.full((2, 3), 3.0))


def test_standard_velocity_consensus_keeps_inertia_term():
    x = np.array([1.0, -2.0, 0.5])
    vel = np.array([0.5, -0.5, 1.0])
    s = step_from(standard_config(0.7, 2.0, 2.0), x, vel, x, x, Draws(r1=0.3, r2=0.9))
    assert np.array_equal(s.velocities[0], 0.7 * vel)


def test_standard_velocity_is_clamped():
    s = step_from(standard_config(1.0, 2.0, 2.0), np.zeros(3), np.zeros(3), np.full(3, 10.0),
                  np.full(3, 10.0), Draws(r1=1.0, r2=1.0))
    assert np.array_equal(s.velocities, np.full((1, 3), 4.0))  # the limit: 0.2 * 20


def test_apply_velocity_identity_sum_and_clamp():
    # w=1, c1=c2=0 and a limit of the box's width keep v, so x' = x + v clamped into [-5, 5]
    cfg = standard_config(1.0, 0.0, 0.0, rows=5, dimension=1, bounds=[-5.0, 5.0],
                          velocity_clamp_fraction=1.0)
    x = np.array([[0.0], [0.0], [4.0], [-4.0], [0.0]])
    v = np.array([[0.0], [1.0], [3.0], [-3.0], [1.0]])
    s = step_from(cfg, x, v, x, [0.0], Draws())
    assert np.array_equal(s.positions, [[0.0], [1.0], [5.0], [-5.0], [1.0]])


# ---------------------------------------------------------------------------
# group-size and gene-count schedules
# ---------------------------------------------------------------------------

def test_group1_size_endpoints_and_midpoint():
    cfg = make_config(g_pini=1.0, g_pfine=0.0, population_size=10)
    assert group1_size(0, cfg) == 10
    assert group1_size(cfg.max_iterations, cfg) == 0
    # round(7.5) with half-away-from-zero
    assert group1_size(cfg.max_iterations // 2, cfg) == 8


def test_groups_always_cover_population():
    cfg = make_config(g_pini=0.9, g_pfine=0.5, population_size=50)
    fitness = np.random.default_rng(1).random(50)
    for t in range(cfg.max_iterations + 1):
        g1 = group1_size(t, cfg)
        group1, group2 = assign_groups(fitness, g1)
        assert len(group1) == g1
        assert np.array_equal(np.sort(np.concatenate([group1, group2])), np.arange(50))


def test_group1_size_non_increasing():
    cfg = make_config(g_pini=0.95, g_pfine=0.35, population_size=37)
    sizes = [group1_size(t, cfg) for t in range(cfg.max_iterations + 1)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_mutation_gene_count_endpoints_and_midpoint():
    cfg = make_config(dimension=10, bounds=[[-1, 1]] * 10, m_min=1, m_max=10)
    assert mutation_gene_count(0, cfg) == 1
    assert mutation_gene_count(cfg.max_iterations, cfg) == 10
    # round(1 + 0.25 * 9) = round(3.25)
    assert mutation_gene_count(cfg.max_iterations // 2, cfg) == 3


def test_mutation_gene_count_non_decreasing_and_bounded():
    cfg = make_config(dimension=10, bounds=[[-1, 1]] * 10, m_min=2, m_max=7)
    counts = [mutation_gene_count(t, cfg) for t in range(cfg.max_iterations + 1)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert all(2 <= c <= 7 for c in counts)


# ---------------------------------------------------------------------------
# gene selection / extended update
# ---------------------------------------------------------------------------

def mutated_genes(keys, m):
    """Each row's mutated genes, read off one step: from v = 0 with pbest = 1
    and alpha = beta = 0, a mutated gene's velocity becomes 1, the others stay 0."""
    n, d = keys.shape
    s = step_from(extended_config(m, rows=n, dimension=d), np.zeros((n, d)), np.zeros((n, d)),
                  np.ones((n, d)), np.zeros(d), Draws(keys=keys))
    assert np.all((s.velocities == 0.0) | (s.velocities == 1.0))
    assert np.all(np.sum(s.velocities, axis=1) == m)  # m distinct genes in every row
    return np.nonzero(s.velocities)[1].reshape(n, m)


def test_select_mutation_genes_reproducible_and_distinct():
    keys = np.random.default_rng(7).random((1, 100))
    a = mutated_genes(keys, 10)
    assert np.array_equal(a, mutated_genes(keys.copy(), 10))
    assert np.array_equal(a[0], np.sort(np.argsort(keys[0])[:10]))  # the 10 smallest keys


def test_extended_velocity_alpha_one_beta_zero():
    # alpha=1, beta=0, pbest=0 -> v'_i = gbest_i
    g = np.array([1.0, 2.0, 3.0])
    s = step_from(extended_config(3), np.zeros(3), [0.2, 0.3, 0.4], np.zeros(3), g,
                  Draws(alpha=1.0, beta=0.0))
    assert np.array_equal(s.velocities[0], g)


def test_extended_velocity_alpha_zero_beta_zero():
    # v'_i = pbest_i
    pbest = np.array([0.5, -0.5, 1.5])
    s = step_from(extended_config(3), np.zeros(3), np.ones(3), pbest, np.zeros(3),
                  Draws(alpha=0.0, beta=0.0))
    assert np.array_equal(s.velocities[0], pbest)


def test_extended_velocity_untouched_genes():
    vel = np.array([[0.1, 0.2, 0.3]])
    cfg = extended_config(1, bounds=[-100.0, 100.0])  # a limit of 40, inactive here
    s = step_from(cfg, np.zeros(3), vel, np.full(3, 2.0), np.full(3, 3.0),
                  Draws(keys=[0.9, 0.1, 0.5], alpha=1.0, beta=0.0))  # gene 1 has the smallest key
    assert s.velocities[0].tolist() == [0.1, 3.0 + 2.0, 0.3]
    assert vel.tolist() == [[0.1, 0.2, 0.3]]  # the input is not modified


# ---------------------------------------------------------------------------
# group assignment and best tracking
# ---------------------------------------------------------------------------

def swarm_with_fitnesses(fits, dimension=1):
    fits = np.array(fits, dtype=float)
    rows = np.zeros((len(fits), dimension))
    best = int(np.argmin(fits))
    return SwarmState(rows, rows.copy(), rows.copy(), fits, np.zeros(dimension), float(fits[best]))


def test_assign_groups_by_fitness_rank():
    g1, g2 = assign_groups(np.array([3.0, 1.0, 2.0]), 2)
    assert g1.tolist() == [1, 2] and g2.tolist() == [0]


def test_assign_groups_degenerate_splits():
    fits = np.array([3.0, 1.0, 2.0])
    assert [g.tolist() for g in assign_groups(fits, 3)] == [[0, 1, 2], []]
    assert [g.tolist() for g in assign_groups(fits, 0)] == [[], [0, 1, 2]]
    with pytest.raises(ContractError):
        assign_groups(fits, 4)


def test_assign_groups_ties_break_by_index():
    g1, g2 = assign_groups(np.array([1.0, 1.0, 1.0]), 2)
    assert g1.tolist() == [0, 1] and g2.tolist() == [2]
    g1, g2 = assign_groups(np.array([2.0, np.inf, 1.0, 2.0, np.inf]), 3)
    assert g1.tolist() == [0, 2, 3] and g2.tolist() == [1, 4]


def test_update_bests_strict_and_nan_rejected():
    s = swarm_with_fitnesses([5.0, 4.0])
    update_bests(s, np.array([5.0, 4.0]))
    assert s.pbest_fitness.tolist() == [5.0, 4.0] and s.gbest_fitness == 4.0
    update_bests(s, np.array([np.nan, np.nan]))
    assert s.pbest_fitness.tolist() == [5.0, 4.0]
    s.positions[0] = 0.5
    update_bests(s, np.array([3.0, np.inf]))
    assert s.pbest_fitness.tolist() == [3.0, 4.0]
    assert np.array_equal(s.pbest_positions, [[0.5], [0.0]])
    assert s.gbest_fitness == 3.0
    assert np.array_equal(s.gbest_position, np.array([0.5]))
    s.positions[0] = 7.0  # the bests hold copies, not views of the positions
    assert s.pbest_positions[0, 0] == 0.5 and s.gbest_position[0] == 0.5


@pytest.mark.parametrize("values, best", [
    ([np.nan, 3.0, -np.inf, 1.0, np.inf, 1.0], 3),
    ([np.inf, np.nan, -np.inf], 0),
])
def test_init_swarm_gives_non_finite_rows_an_infinite_pbest(values, best):
    @batch_objective
    def fixed(x):
        return np.array(values)

    cfg = make_config(population_size=len(values))
    swarm = init_swarm(cfg, fixed, np.random.default_rng(cfg.seed))
    want = np.where(np.isfinite(values), values, np.inf)
    assert swarm.pbest_fitness.tolist() == want.tolist()
    assert np.array_equal(swarm.pbest_positions, swarm.positions)
    assert swarm.gbest_fitness == want[best]
    assert np.array_equal(swarm.gbest_position, swarm.positions[best])


def sequential_bests(fits, pbest, gbest_fitness):
    """The per-particle writer: rows in index order, strict improvement, finite only."""
    pbest = list(pbest)
    gbest_row = None
    for i, f in enumerate(fits):
        if not np.isfinite(f):
            continue
        if f < pbest[i]:
            pbest[i] = f
        if f < gbest_fitness:
            gbest_fitness, gbest_row = f, i
    return pbest, gbest_fitness, gbest_row


_fitness_values = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_fitness_values, _fitness_values.filter(np.isfinite)),
                min_size=1, max_size=8),
       st.sampled_from([1.5, 3.0, np.inf]))
def test_update_bests_matches_sequential_writer(rows, gbest_fitness):
    fits = np.array([f for f, _ in rows])
    pbest = np.array([p for _, p in rows])
    s = swarm_with_fitnesses(pbest, dimension=2)
    s.gbest_fitness = gbest_fitness
    s.positions[:] = np.arange(len(rows))[:, None]  # row i sits at (i, i)
    want_pbest, want_gbest, want_row = sequential_bests(fits, pbest, gbest_fitness)
    update_bests(s, fits)
    assert s.pbest_fitness.tolist() == want_pbest
    assert s.gbest_fitness == want_gbest
    if want_row is not None:
        assert np.array_equal(s.gbest_position, [want_row, want_row])
    for i, (f, p) in enumerate(rows):
        assert np.array_equal(s.pbest_positions[i], [i, i] if np.isfinite(f) and f < p else [0, 0])


# ---------------------------------------------------------------------------
# step / optimize
# ---------------------------------------------------------------------------

def test_step_pure_pso_equivalence_bit_exact():
    cfg = make_config(g_pini=1.0, g_pfine=1.0, population_size=6, max_iterations=20)
    a = optimize(cfg, sphere, mode="epso")
    b = optimize(cfg, sphere, mode="pso")
    assert a.trace == b.trace
    assert np.array_equal(a.best_position, b.best_position)


def test_step_single_particle_gbest_is_pbest():
    cfg = make_config(population_size=1, g_pini=1.0, g_pfine=1.0, max_iterations=5)
    rng = np.random.default_rng(cfg.seed)
    swarm = init_swarm(cfg, sphere, rng)
    step(swarm, sphere, cfg, rng)
    assert swarm.gbest_fitness == swarm.pbest_fitness[0]


def test_step_deterministic_re_execution():
    cfg = make_config(population_size=8, max_iterations=10, seed=99)
    states = []
    for _ in range(2):
        rng = np.random.default_rng(cfg.seed)
        swarm = init_swarm(cfg, sphere, rng)
        for _ in range(cfg.max_iterations):
            step(swarm, sphere, cfg, rng)
        states.append(swarm.positions.copy())
    assert np.array_equal(states[0], states[1])


def test_step_past_max_iterations_rejected():
    cfg = make_config(max_iterations=1)
    rng = np.random.default_rng(cfg.seed)
    swarm = init_swarm(cfg, sphere, rng)
    step(swarm, sphere, cfg, rng)
    with pytest.raises(ContractError):
        step(swarm, sphere, cfg, rng)


@pytest.mark.parametrize("field, shape", [
    ("positions", (10, 4)), ("velocities", (9, 3)), ("pbest_positions", (10,)),
    ("pbest_fitness", (11,)), ("pbest_fitness", (10, 1)), ("gbest_position", (4,)),
    ("gbest_position", (1, 3)),
])
def test_step_rejects_a_state_that_does_not_match_the_config(field, shape):
    cfg = make_config(max_iterations=5)  # P=10, D=3
    rng = np.random.default_rng(cfg.seed)
    swarm = init_swarm(cfg, sphere, rng)
    setattr(swarm, field, np.zeros(shape))
    drawn = rng.bit_generator.state
    with pytest.raises(ContractError, match=r"^positions, velocities, pbest_positions, "
                       r"pbest_fitness and gbest_position must have shapes "
                       r"\(\(10, 3\), \(10, 3\), \(10, 3\), \(10,\), \(3,\)\), got "):
        step(swarm, sphere, cfg, rng)
    assert rng.bit_generator.state == drawn and swarm.iteration == 0  # nothing was drawn


@pytest.mark.parametrize("g_pini", [1.0, 0.0], ids=["flat", "two-group"])
def test_step_refuses_a_generator_that_is_not_pcg64(g_pini):
    cfg = make_config(max_iterations=5, g_pini=g_pini, g_pfine=g_pini)
    swarm = init_swarm(cfg, sphere, np.random.default_rng(cfg.seed))
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ContractError, match=r"^step needs a PCG64 generator, as "
                       r"np.random.default_rng gives; got MT19937$"):
        step(swarm, sphere, cfg, rng)
    # nothing was drawn
    assert rng.random() == np.random.Generator(np.random.MT19937(0)).random()
    assert swarm.iteration == 0


def test_velocity_limit_is_computed_once_and_read_only():
    cfg = make_config()
    assert cfg.velocity_limit is cfg.velocity_limit
    assert np.array_equal(cfg.velocity_limit, [4.0, 4.0, 4.0])
    with pytest.raises(ValueError, match="read-only"):
        cfg.velocity_limit[0] = 1.0
    assert np.array_equal(dataclasses.replace(cfg, velocity_clamp_fraction=0.5).velocity_limit,
                          [10.0, 10.0, 10.0])


@pytest.mark.parametrize("mode", [None, 1, "PSO"])
def test_optimize_rejects_a_mode_outside_modes(mode):
    with pytest.raises(ConfigError, match="mode must be one of"):
        optimize(make_config(max_iterations=1), sphere, mode)


def test_optimize_zero_iterations_trace_length_one():
    cfg = make_config(max_iterations=0)
    res = optimize(cfg, sphere)
    assert len(res.trace) == 1
    assert res.trace[0][1] == res.best_fitness


def test_optimize_same_seed_identical_traces():
    cfg = make_config(max_iterations=30, population_size=12)
    assert optimize(cfg, sphere).trace == optimize(cfg, sphere).trace


def test_optimize_trace_shape_and_monotonicity():
    cfg = make_config(max_iterations=40)
    res = optimize(cfg, sphere)
    assert len(res.trace) == cfg.max_iterations + 1
    fits = [f for _, f in res.trace]
    assert all(a >= b for a, b in zip(fits, fits[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("mode", ["pso", "epso"])
def test_positions_and_velocities_stay_bounded(seed, mode):
    cfg = make_config(dimension=4, bounds=[[-3.0, 5.0]] * 4, population_size=10,
                      max_iterations=25, seed=seed, g_pini=0.9, g_pfine=0.4)
    limit = cfg.velocity_limit
    lo, hi = cfg.bounds[:, 0], cfg.bounds[:, 1]
    for swarm in run_steps(cfg, sphere, mode, np.random.default_rng(cfg.seed)):
        assert np.all(swarm.positions >= lo) and np.all(swarm.positions <= hi)
        assert np.all(np.abs(swarm.velocities) <= limit + 1e-12)
        assert swarm.gbest_fitness == swarm.pbest_fitness.min()


def test_non_finite_objective_never_becomes_best():
    def spiky(x):
        return float("nan") if x[0] > 0 else sphere(x)

    cfg = make_config(dimension=1, bounds=[[-1.0, 1.0]], population_size=6, max_iterations=15)
    res = optimize(cfg, spiky)
    assert np.isfinite(res.best_fitness)


def test_evaluation_error_carries_particle_index():
    def broken(x):
        raise RuntimeError("boom")

    cfg = make_config(population_size=3)
    with pytest.raises(EvaluationError) as exc:
        optimize(cfg, broken)
    assert exc.value.particle_index == 0


# ---------------------------------------------------------------------------
# batch objectives: one call per iteration, the per-row calls as the adapter
# ---------------------------------------------------------------------------

def counting_batch(fn):
    calls = []

    @batch_objective
    def objective(x):
        calls.append(np.shape(x))
        return fn(x)

    return objective, calls


def test_batch_objective_gets_one_call_per_iteration():
    spec, fn = registry("rastrigin_shifted_rotated", 4, seed=0)
    assert fn.batch is True
    objective, calls = counting_batch(fn)
    cfg = make_config(dimension=4, bounds=spec.bounds, population_size=7, max_iterations=5)
    optimize(cfg, objective)
    assert calls == [(7, 4)] * 6


@pytest.mark.parametrize("mode", ["pso", "epso"])
@pytest.mark.parametrize("name", available_functions())
def test_batch_and_per_row_runs_are_identical(name, mode):
    spec, fn = registry(name, 10, seed=2)
    cfg = EpsoConfig(dimension=10, bounds=spec.bounds, population_size=20, max_iterations=25,
                     seed=5, g_pini=0.9, g_pfine=0.4)
    batch, per_row = optimize(cfg, fn, mode), optimize(cfg, lambda x: fn(x), mode)
    assert batch.trace == per_row.trace
    assert batch.best_position.tobytes() == per_row.best_position.tobytes()
    assert batch.best_fitness == per_row.best_fitness


def test_failing_batch_is_rerun_by_row_and_names_the_first_failing_row():
    def value(x):
        if x[0] > 2.0:
            raise RuntimeError(f"boom at {float(x[0])!r}")
        return sphere(x)

    @batch_objective
    def batch(x):  # meets the failing rows last first
        x = np.asarray(x)
        return value(x) if x.ndim == 1 else np.array([value(row) for row in x[::-1]])

    positions = np.zeros((6, 3))
    positions[[2, 4], 0] = 3.0, 2.5
    with pytest.raises(EvaluationError) as per_row_error:
        _evaluate(value, positions)
    with pytest.raises(EvaluationError) as batch_error:
        _evaluate(batch, positions)
    assert batch_error.value.particle_index == per_row_error.value.particle_index == 2
    assert str(batch_error.value) == str(per_row_error.value)
    assert str(batch_error.value) == (
        "objective evaluation failed for particle 2: RuntimeError('boom at 3.0')")


@pytest.mark.parametrize("shape", [(), (1,), (5, 1), (6,), (5, 2)])
def test_batch_result_of_the_wrong_shape_is_a_contract_error(shape):
    @batch_objective
    def wrong(x):
        return np.zeros(shape) if np.ndim(x) == 2 else 0.0

    with pytest.raises(ContractError, match=r"shape \(5,\)"):
        optimize(make_config(population_size=5), wrong)


def test_non_finite_batch_rows_are_handled_as_per_row():
    def value(x):
        if x[0] > 4.0:
            return float("nan")
        if x[1] > 4.0:
            return float("inf")
        if x[2] > 4.0:
            return float("-inf")
        return sphere(x)

    @batch_objective
    def batch(x):
        return value(x) if np.ndim(x) == 1 else np.array([value(row) for row in x])

    for mode in ("pso", "epso"):
        cfg = make_config(population_size=15, max_iterations=30, g_pini=0.8, g_pfine=0.3)
        a, b = optimize(cfg, batch, mode), optimize(cfg, value, mode)
        assert a.trace == b.trace and np.isfinite(a.best_fitness)
        assert a.best_position.tobytes() == b.best_position.tobytes()


# ---------------------------------------------------------------------------
# the trace: (iteration, gbest) pairs to its readers
# ---------------------------------------------------------------------------

def test_trace_reads_as_the_list_of_pairs():
    pairs = [(0, 3.5), (1, 2.0), (2, 2.0), (3, -1.25)]
    trace = Trace([v for _, v in pairs])
    assert trace == Trace(trace.values) and trace != Trace(trace.values[:-1])
    assert trace != pairs  # a trace equals only a trace
    assert len(trace) == 4 and list(trace) == pairs
    assert trace[0] == (0, 3.5) and trace[-1] == (3, -1.25) and trace[-4] == (0, 3.5)
    assert trace[1:3] == pairs[1:3] and trace[:-1] == pairs[:-1] and trace[::-2] == pairs[::-2]
    assert all(type(i) is int and type(v) is float for i, v in trace)
    assert all(type(i) is int and type(v) is float for i, v in [trace[1], trace[-1]])
    for bad in (4, -5):
        with pytest.raises(IndexError):
            trace[bad]
    with pytest.raises(ValueError):
        trace.values[0] = 0.0
    with pytest.raises(TypeError):
        hash(trace)
    run = optimize(make_config(max_iterations=1000), sphere)
    assert isinstance(run.trace, Trace) and run.trace.values.nbytes == 8 * 1001


# ---------------------------------------------------------------------------
# golden runs: exact traces and best positions, recorded from the block-draw
# contract (one generator per run, fixed-shape draw blocks per step)
# ---------------------------------------------------------------------------

def run_digest(run):
    assert [t for t, _ in run.trace] == list(range(len(run.trace)))
    return run.best_fitness, digest([f for _, f in run.trace]), digest(run.best_position)


PSO_RASTRIGIN = {  # rastrigin_shifted_rotated D10 (registry seed 1), P50, T200
    1: (434.84627843066016,
        "00aff2d5a36ca8cd30a5f76aaa9bab4fd2b68d3726ae540a13d503c705b76e8b",
        "9ab2abcf50f4d6a92853715bbf553dd404f73c769eef74e2e6ab75a65d9086a9"),
    2: (443.9746627885708,
        "b0ae487e4569b1ffa756f5b681e6586281340f69060adb9c92eb12d88d590a21",
        "098996b34ec0c7ab9722ed48f5b99c8a96dbfab7209ce03a5f7c64c6ca5b1f47"),
    3: (437.5258848027898,
        "dcd4246d97bdbcacb8943ed8b803a23e58bbec1b277eb8233acb290a0e5875c2",
        "172da70774536e51e5736667764501ca923e1fd1369cd01e9450914376e022ae"),
}
RASTRIGIN_GOLDENS = {
    **{("pso", seed): value for seed, value in PSO_RASTRIGIN.items()},
    ("epso", 1): (436.7942100470944,
                  "09053743986effce6fc4d28c93d6cbbde5af0de5f8fe4ae8111d2edd1969b94c",
                  "8e2758c9b30426469ac662df6bf2c35e6cd70d99c8dbcfe5d79fea81286b4410"),
    ("epso", 2): (430.6056186679259,
                  "1b205cf46cd919783ecf06fc1184a86956cbcec2da8bde8c282aca16d09dd7ee",
                  "87a4dcc910c5d750446b8985a11406c8a64b338db5415288108c3a3d5bbe6cef"),
    ("epso", 3): PSO_RASTRIGIN[3],  # group 2 never improves gbest on this seed
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["pso", "epso"])
def test_golden_rastrigin_traces(mode, seed):
    spec, fn = registry("rastrigin_shifted_rotated", 10, seed=1)
    cfg = EpsoConfig(dimension=10, bounds=spec.bounds, population_size=50, max_iterations=200,
                     seed=seed)
    assert run_digest(optimize(cfg, fn, mode=mode)) == RASTRIGIN_GOLDENS[mode, seed]


def test_golden_composition_3_two_group_trace():
    spec, fn = registry("composition_3", 10, seed=1)
    cfg = EpsoConfig(dimension=10, bounds=spec.bounds, population_size=50, max_iterations=200,
                     seed=4, g_pini=0.9, g_pfine=0.4)
    assert run_digest(optimize(cfg, fn, mode="epso")) == (
        302709082.2969418,
        "219da81093fe04caae305989e40ee85770260a266b9eee0df404e507a884a93c",
        "92fd5542d4e05cfda2405bb9f67ea2392e8835eee9561cdfb8ccea3da1b08774",
    )


def test_golden_swarm_state_after_two_group_steps():
    spec, fn = registry("rastrigin_shifted_rotated", 10, seed=1)
    cfg = EpsoConfig(dimension=10, bounds=spec.bounds, population_size=20, max_iterations=30,
                     seed=7, g_pini=0.8, g_pfine=0.3)
    rng = np.random.default_rng(cfg.seed)
    swarm = init_swarm(cfg, fn, rng)
    for _ in range(cfg.max_iterations):
        step(swarm, fn, cfg, rng)
    assert [digest(a) for a in (swarm.positions, swarm.velocities, swarm.pbest_positions,
                                swarm.pbest_fitness, swarm.gbest_position)] == [
        "b8508ba0b82325e01af050327d7abedf6d32caf094520bf87be2c7e1a7f3b962",
        "7f3695b84fa73071606b3f6996b4f927061333285bb994dfb090cdbfc8a84d91",
        "8d2ee7250d11bd3b855a6d69978e8f0a26f6e3f2f30b09fddd4dfe7749026e10",
        "6a91b8e5ce5cc1b70e29b5dc2afc1d27e2bb105a58f121a836566e9d30eb94f8",
        "bcf30d1416fc669aed3a949d7f6b7086b04c296f923ea4473b8dc7b8b7730d9a",
    ]
    assert swarm.gbest_fitness == 587.5539933379624


def test_golden_feature_selection_run():
    d = synth_dataset(60, 200, 10, seed=0)
    cfg = EpsoConfig(dimension=200, bounds=position_bounds(200), population_size=10,
                     max_iterations=10, seed=5, g_pini=0.9, g_pfine=0.4)
    res = select_features(d, cfg, WrapperConfig(), mode="epso")
    assert run_digest(res.run) == (
        0.0,
        "10eef285deef7a4b7c82b22aa53589b7833df29de3814649c772bbd5c832f365",
        "5895794dada63dc48e614f280ea67d80a8e14a821559ac83d260a9da90b0c207",
    )


# ---------------------------------------------------------------------------
# properties over random boxes and schedules
# ---------------------------------------------------------------------------

@st.composite
def configs(draw):
    d = draw(st.integers(1, 5))
    low = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    g_pini = draw(st.floats(0.0, 1.0))
    m_min = draw(st.integers(1, d))
    return EpsoConfig(
        dimension=d,
        bounds=np.column_stack([low, low + width]),
        population_size=draw(st.integers(1, 8)),
        max_iterations=draw(st.integers(1, 12)),
        g_pini=g_pini,
        g_pfine=draw(st.floats(0.0, g_pini)),
        m_min=m_min,
        m_max=draw(st.integers(m_min, d)),
        velocity_clamp_fraction=draw(st.floats(0.01, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def shifted_sphere(cfg: EpsoConfig, pull: float):
    """A bowl centred at the box centre plus pull * width, so pulls past 0.5 press on the bounds."""
    lo, hi = cfg.bounds[:, 0], cfg.bounds[:, 1]
    target = (lo + hi) / 2.0 + pull * (hi - lo)
    return lambda x: float(np.sum(((x - target) / (hi - lo)) ** 2))


def tied_sphere(cfg: EpsoConfig, pull: float):
    """shifted_sphere floored to a grid of 1/4, with a NaN plateau on the lowest
    tenth of the first coordinate's range and a +inf plateau on its top tenth:
    many equal values, and rows whose values update_bests rejects."""
    value = shifted_sphere(cfg, pull)
    lo, width = cfg.bounds[0, 0], cfg.bounds[0, 1] - cfg.bounds[0, 0]

    def objective(x):
        u = (x[0] - lo) / width
        if u < 0.1:
            return float("nan")
        if u > 0.9:
            return float("inf")
        return float(np.floor(4.0 * value(x)) / 4.0)

    return objective


def run_steps(cfg, objective, mode, rng):
    """init_swarm and each step, as optimize runs them: PSO is the flat schedule."""
    if mode == "pso":
        cfg = dataclasses.replace(cfg, g_pini=1.0, g_pfine=1.0)
    swarm = init_swarm(cfg, objective, rng)
    yield swarm
    for _ in range(cfg.max_iterations):
        step(swarm, objective, cfg, rng)
        yield swarm


@settings(max_examples=150, deadline=None)
@given(configs(), st.sampled_from(["pso", "epso"]), st.floats(-2.0, 2.0))
def test_property_rows_stay_in_bounds_and_gbest_is_best_pbest(cfg, mode, pull):
    lo, hi, limit = cfg.bounds[:, 0], cfg.bounds[:, 1], cfg.velocity_limit
    rng = np.random.default_rng(cfg.seed)
    for swarm in run_steps(cfg, shifted_sphere(cfg, pull), mode, rng):
        shape = (cfg.population_size, cfg.dimension)
        assert swarm.positions.shape == swarm.velocities.shape == shape
        assert np.all((swarm.positions >= lo) & (swarm.positions <= hi))
        assert np.all(np.abs(swarm.velocities) <= limit)
        assert swarm.gbest_fitness == swarm.pbest_fitness.min()


def as_bytes(arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def reference_run(cfg, objective, mode):
    """init_swarm and step written from the draw contract, one row and one
    coordinate at a time; yields the state after init and after every step.

    Init draws one P x D block. Each step draws r1 | r2 as one (2, P, D)
    block, then P x D gene keys, then alpha | beta as one (2, P, m) block on
    [-1, 1]. A group-2 row mutates the m genes holding its smallest keys,
    and its other coordinates keep their velocity.
    """
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.population_size, cfg.dimension
    lo, hi = cfg.bounds[:, 0].tolist(), cfg.bounds[:, 1].tolist()
    limit = cfg.velocity_limit.tolist()

    def clamp(value, low, high):
        return min(max(value, low), high)

    def evaluate(rows):
        values = [float(objective(np.array(row))) for row in rows]
        return [f if np.isfinite(f) else np.inf for f in values]

    u = rng.random((n, d)).tolist()
    x = [[lo[j] + (hi[j] - lo[j]) * u[i][j] for j in range(d)] for i in range(n)]
    v = [[0.0] * d for _ in range(n)]
    pbest, pfit = [row[:] for row in x], evaluate(x)
    best = min(range(n), key=lambda i: (pfit[i], i))
    gbest, gfit = x[best][:], pfit[best]
    yield x, v, pbest, pfit, gbest, gfit
    for t in range(cfg.max_iterations):
        g1 = n if mode == "pso" else group1_size(t, cfg)
        group2 = set(sorted(range(n), key=lambda i: (pfit[i], i))[g1:])
        r = rng.random((2, n, d)).tolist()
        keys = rng.random((n, d)).tolist()
        m = mutation_gene_count(t, cfg)
        alpha, beta = (-1.0 + 2.0 * rng.random((2, n, m))).tolist()
        w = inertia_weight(t, cfg)
        for i in range(n):
            if i in group2:  # only the genes move; the other coordinates keep their velocity
                new = v[i][:]
                genes = sorted(sorted(range(d), key=lambda j: keys[i][j])[:m])
                for k, j in enumerate(genes):
                    new[j] = clamp(alpha[i][k] * gbest[j] + (1.0 - beta[i][k] * v[i][j])
                                   * pbest[i][j], -limit[j], limit[j])
            else:
                new = [clamp(v[i][j] * w + (cfg.c1 * r[0][i][j]) * (pbest[i][j] - x[i][j])
                             + (cfg.c2 * r[1][i][j]) * (gbest[j] - x[i][j]), -limit[j], limit[j])
                       for j in range(d)]
            v[i] = new
            x[i] = [clamp(x[i][j] + v[i][j], lo[j], hi[j]) for j in range(d)]
        fitness = evaluate(x)
        for i in range(n):
            if fitness[i] < pfit[i]:
                pbest[i], pfit[i] = x[i][:], fitness[i]
        best = min(range(n), key=lambda i: (fitness[i], i))
        if fitness[best] < gfit:
            gbest, gfit = x[best][:], fitness[best]
        yield x, v, pbest, pfit, gbest, gfit


@settings(max_examples=150, deadline=None)
@given(configs(), st.sampled_from(["pso", "epso"]))
def test_property_each_step_leaves_the_generator_past_every_block(cfg, mode):
    # a flat step draws r1 | r2 and skips the rest; the generator must end
    # where drawing the keys and alpha | beta as well leaves it
    n, d = cfg.population_size, cfg.dimension
    rng, full = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    full.random((n, d))
    for swarm in run_steps(cfg, shifted_sphere(cfg, 0.3), mode, rng):
        if swarm.iteration > 0:
            full.random((3, n, d))
            full.uniform(-1.0, 1.0, (2, n, mutation_gene_count(swarm.iteration - 1, cfg)))
        assert rng.bit_generator.state == full.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(configs(), st.sampled_from(["pso", "epso"]), st.floats(-2.0, 2.0),
       st.sampled_from([shifted_sphere, tied_sphere]))
# a lower bound of -0.0: a position clamped onto it keeps the sign of x + v, as in clamp()
@example(EpsoConfig(dimension=1, bounds=np.array([[-0.0, 6.0]]), population_size=1,
                    max_iterations=2, g_pini=0.0, g_pfine=0.0, m_min=1, m_max=1,
                    velocity_clamp_fraction=1.0, seed=0), "epso", 0.0, shifted_sphere)
def test_property_step_equals_the_plain_loop_reference(cfg, mode, pull, landscape):
    objective = landscape(cfg, pull)
    rng = np.random.default_rng(cfg.seed)
    for swarm, ref in zip(run_steps(cfg, objective, mode, rng),
                          reference_run(cfg, objective, mode), strict=True):
        assert as_bytes((swarm.positions, swarm.velocities, swarm.pbest_positions,
                         swarm.pbest_fitness, swarm.gbest_position, swarm.gbest_fitness)) == (
            as_bytes(ref))


@settings(max_examples=60, deadline=None)
@given(configs(), st.floats(-2.0, 2.0))
def test_property_epso_equals_pso_when_both_fractions_are_one(cfg, pull):
    cfg = dataclasses.replace(cfg, g_pini=1.0, g_pfine=1.0)
    objective = shifted_sphere(cfg, pull)
    epso, pso = optimize(cfg, objective, "epso"), optimize(cfg, objective, "pso")
    assert epso.trace == pso.trace
    assert epso.best_position.tobytes() == pso.best_position.tobytes()


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from(["pso", "epso"]), st.integers(0, 2**32 - 1))
def test_property_rows_evaluated_in_shuffled_order_give_the_same_run(cfg, mode, order_seed):
    value = shifted_sphere(cfg, 0.3)
    order = np.random.default_rng(order_seed)

    @batch_objective
    def shuffled(x):
        if np.ndim(x) == 1:
            return value(x)
        out = np.empty(len(x))
        for i in order.permutation(len(x)):  # a new order on every call
            out[i] = value(x[i])
        return out

    batch, per_row = optimize(cfg, shuffled, mode), optimize(cfg, value, mode)
    assert batch.trace == per_row.trace
    assert batch.best_position.tobytes() == per_row.best_position.tobytes()


def test_gene_draws_are_uniform_over_subsets():
    # D=6, m=2: 15 subsets, 1,000 expected each. 36.12 is the 0.999 quantile
    # of chi-square with 14 degrees of freedom, fixed before the test was run.
    keys = np.random.default_rng(2024).random((15_000, 6))
    genes = mutated_genes(keys, 2)
    assert np.all(genes[:, 0] < genes[:, 1])
    subsets, counts = np.unique(genes, axis=0, return_counts=True)
    assert len(subsets) == 15
    assert float(np.sum((counts - 1000.0) ** 2 / 1000.0)) < 36.12


@settings(max_examples=200, deadline=None)
@given(configs())
def test_property_schedules_monotone_and_in_range(cfg):
    sizes = [group1_size(t, cfg) for t in range(cfg.max_iterations + 1)]
    genes = [mutation_gene_count(t, cfg) for t in range(cfg.max_iterations + 1)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert all(a <= b for a, b in zip(genes, genes[1:]))
    assert all(0 <= g <= cfg.population_size for g in sizes)
    assert all(cfg.m_min <= m <= cfg.m_max for m in genes)
