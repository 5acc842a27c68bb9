import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epso import ContractError, UnknownFunctionError, registry
from epso.benchmarks import (
    _REGISTRY,
    CompositionComponent,
    _block_sizes,
    _composition,
    _hybrid,
    _random_rotation,
    _shifted_rotated,
    ackley,
    available_functions,
    cigar,
    composition_weights,
    elliptic,
    rastrigin,
    schwefel,
)

SCHWEFEL_OPT = 420.9687


# ---------------------------------------------------------------------------
# base functions
# ---------------------------------------------------------------------------

def test_elliptic_anchors():
    assert elliptic(np.zeros(5)) == 0.0
    assert elliptic([1.0, 0.0]) == pytest.approx(1.0)
    assert elliptic([0.0, 1.0]) == pytest.approx(1e6)
    assert elliptic([2.0]) == pytest.approx(4.0)  # D=1 uses exponent 0


def test_cigar_anchors():
    assert cigar(np.zeros(4)) == 0.0
    assert cigar([1.0, 0.0]) == pytest.approx(1.0)
    assert cigar([0.0, 1.0]) == pytest.approx(1e6)
    with pytest.raises(ContractError):
        cigar([1.0])


def test_ackley_anchors():
    assert ackley(np.zeros(7)) == pytest.approx(0.0, abs=1e-12)
    # value at all-ones is independent of dimension
    assert ackley(np.ones(2)) == pytest.approx(ackley(np.ones(9)))
    # far from the origin the envelope term vanishes: f -> 20 at integer points
    assert ackley(np.full(6, 1000.0)) == pytest.approx(20.0, abs=1e-6)


def test_rastrigin_anchors():
    assert rastrigin(np.zeros(3)) == 0.0
    assert rastrigin([1.0]) == pytest.approx(1.0)
    assert rastrigin([0.5]) == pytest.approx(20.25)


def test_schwefel_anchors():
    assert abs(schwefel(np.full(10, SCHWEFEL_OPT))) <= 1e-3
    assert schwefel(np.zeros(4)) == pytest.approx(418.9829 * 4)
    assert schwefel([-SCHWEFEL_OPT]) == pytest.approx(837.9658, abs=1e-3)
    with pytest.raises(ContractError):
        schwefel([501.0])


@pytest.mark.parametrize("fn,dim", [(elliptic, 5), (cigar, 5), (ackley, 5), (rastrigin, 5)])
def test_base_functions_non_negative(fn, dim):
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert fn(rng.uniform(-5, 5, dim)) >= 0.0


@pytest.mark.parametrize("fn,least", [(elliptic, 1), (cigar, 2), (ackley, 1), (rastrigin, 1),
                                      (schwefel, 1)])
def test_base_functions_declare_their_least_dimension(fn, least):
    assert fn.least_dimension == least
    with pytest.raises(ContractError, match=f"^{fn.__name__} needs "):
        fn(np.zeros(least - 1))
    value = fn(np.zeros(least))
    assert isinstance(value, float) and np.isfinite(value)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def moved(shift, rotation):
    """The point _shifted_rotated hands its base function."""
    return _shifted_rotated(lambda z: z, shift, rotation)


def test_transform_identity_and_shift():
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(moved(np.zeros(3), np.eye(3))(x), x)
    assert np.array_equal(moved(x.copy(), np.eye(3))(x), np.zeros(3))


def test_rotation_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        q, r = np.linalg.qr(a)
        shift = rng.uniform(-3, 3, 6)
        x = rng.uniform(-10, 10, 6)
        assert np.linalg.norm(moved(shift, q)(x)) == pytest.approx(
            np.linalg.norm(x - shift), abs=1e-9
        )


def test_random_rotation_is_orthonormal():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for dim in range(1, 51):
            q = _random_rotation(rng, dim)
            assert q.shape == (dim, dim)
            assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-9, (seed, dim)


# ---------------------------------------------------------------------------
# hybrid / composition
# ---------------------------------------------------------------------------

def test_hybrid_single_part_is_base():
    h = _hybrid([(rastrigin, 1.0)], [3])
    z = np.array([0.3, -1.2, 0.7])
    assert h(z) == pytest.approx(rastrigin(z))


def test_hybrid_separable_additivity():
    h = _hybrid([(rastrigin, 0.5), (rastrigin, 0.5)], [4, 4])
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-5, 5, 8)
        assert h(z) == pytest.approx(rastrigin(z))


def test_hybrid_zero_at_origin_and_validation():
    parts = [(elliptic, 0.5), (cigar, 0.5)]
    assert _block_sizes(parts, 8) == [4, 4]
    h = _hybrid(parts, [4, 4])
    assert h(np.zeros(8)) == 0.0
    assert h(np.eye(8)[4]) == pytest.approx(1.0)  # the first coordinate of cigar's block


def test_hybrid_rejects_empty_blocks():
    with pytest.raises(ContractError, match="hybrid blocks must be non-empty"):
        _block_sizes([(rastrigin, 0.01), (rastrigin, 0.99)], 4)  # first block rounds to zero


def two_component_symmetric():
    return [
        CompositionComponent(lambda x: rastrigin(x - 2.0), 5.0, 0.0, np.full(4, 2.0)),
        CompositionComponent(lambda x: rastrigin(x + 2.0), 5.0, 0.0, np.full(4, -2.0)),
    ]


def test_composition_single_component():
    c = _composition([CompositionComponent(lambda x: float(np.sum(x**2)), 3.0, 7.0, np.zeros(3))])
    z = np.array([1.0, 2.0, 2.0])
    assert c(z) == pytest.approx(9.0 + 7.0)


def test_composition_collapses_at_a_shift():
    comps = two_component_symmetric()
    c = _composition(comps)
    assert c(np.full(4, 2.0)) == pytest.approx(0.0)
    w = composition_weights(np.full(4, 2.0), comps)
    assert np.array_equal(w, [1.0, 0.0])


def test_composition_symmetric_midpoint_weights():
    comps = two_component_symmetric()
    w = composition_weights(np.zeros(4), comps)
    assert w == pytest.approx([0.5, 0.5])


def test_composition_weights_sum_to_one():
    comps = two_component_symmetric()
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = composition_weights(rng.uniform(-50, 50, 4), comps)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_unknown_name_lists_available():
    with pytest.raises(UnknownFunctionError) as exc:
        registry("nope", 10, 0)
    assert "rastrigin_shifted_rotated" in str(exc.value)


def test_registry_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-100, 100, (10, 10))
    for name in available_functions():
        _, f1 = registry(name, 10, seed=7)
        _, f2 = registry(name, 10, seed=7)
        for x in pts:
            assert f1(x) == f2(x)  # bit-identical


def test_registry_value_at_optimum_equals_bias():
    for name in available_functions():
        spec, f = registry(name, 10, seed=3)
        tol = 1e-3 if name == "schwefel_shifted_rotated" else 1e-9
        assert f(spec.optimum) == pytest.approx(spec.bias, abs=tol), name


def test_registry_pure_repeat_evaluation():
    spec, f = registry("composition_1", 6, seed=5)
    x = np.linspace(-50, 50, 6)
    assert f(x) == f(x)


def test_registry_shift_within_central_band():
    for name in available_functions():
        spec, _ = registry(name, 9, seed=9)
        lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
        mid, half = (lo + hi) / 2, 0.4 * (hi - lo)
        assert np.all(spec.optimum >= mid - half) and np.all(spec.optimum <= mid + half)


# Values of every registry function at D=10 (registry seed 0), recorded before
# the base functions switched from np.sum/np.mean to the array methods. Points:
# three uniform draws from the box, two at the optimum plus a standard-normal
# offset, and the optimum itself (see registry_points).
REGISTRY_VALUES_D10 = {
    'elliptic_rotated': (
        9919012207.053246, 2283741755.69815, 6511390844.441893,
        779104.3901929304, 4996294.8872019835, 100.0,
    ),
    'cigar_rotated': (
        51877863024.47753, 56213798355.45624, 66609070972.60609,
        5525471.251918325, 13909687.194502981, 200.0,
    ),
    'ackley_shifted_rotated': (
        321.7987452538039, 321.7219726629777, 321.8873369994267,
        304.9291685980639, 305.523725830025, 300.0,
    ),
    'rastrigin_shifted_rotated': (
        101546.47305501312, 24983.509943830453, 45152.078917861494,
        530.4646004552511, 494.3645471142175, 400.0,
    ),
    'schwefel_shifted_rotated': (
        620.2969349671575, 558.0654448412506, 570.9514841052478,
        500.0123344801814, 500.02756788563147, 500.00012727837475,
    ),
    'hybrid_1': (
        2856208935.798047, 6146922547.246527, 1970046794.3762248,
        607977.4570851382, 61910.90718599779, 600.0,
    ),
    'hybrid_2': (
        4047487685.2527213, 1625723185.660674, 3810841173.1282763,
        452180.57378067, 73911.53157882535, 700.0,
    ),
    'hybrid_3': (
        15095677444.029917, 6758922100.978913, 6802450866.759508,
        3747.4631107746536, 4087981.5437267222, 800.0,
    ),
    'composition_1': (
        9109188001.098274, 4154882395.117475, 11807735729.56456,
        6807440.817943516, 10302400.813277477, 900.0,
    ),
    'composition_2': (
        37729272785.35761, 46877492266.67321, 41657178986.29292,
        42019729.99776173, 64540743.34576646, 1000.0,
    ),
    'composition_3': (
        9346961705.653652, 19036445982.005173, 11888428434.22879,
        169889693.2813741, 249811228.27972373, 1100.0,
    ),
}


def registry_points(spec):
    rng = np.random.default_rng(2024)
    far = rng.uniform(-100.0, 100.0, (3, spec.dimension))
    near = rng.normal(0.0, 1.0, (2, spec.dimension))
    return list(far) + [spec.optimum + n for n in near] + [spec.optimum]


@pytest.mark.parametrize("name", available_functions())
def test_registry_values_pinned_at_d10(name):
    spec, fn = registry(name, 10, seed=0)
    values = tuple(fn(x) for x in registry_points(spec))
    assert values == REGISTRY_VALUES_D10[name]  # exact, no tolerance


# The same six points at D = 2, 30 and 100 (registry seed 0), recorded with the
# scalar registry that the batched one replaced. None: the hybrid has more
# parts than D=2 has dimensions, so registry refuses to build it.
REGISTRY_VALUES = {
    2: {
        'elliptic_rotated': (
            2039475727.881029, 586723813.7895727, 37395744.8669274,
            969991.1799909621, 3464417.528989644, 100.0,
        ),
        'cigar_rotated': (
            302167699.4265363, 13876878003.64479, 2820687570.8017817,
            32128.095812243177, 5989.612835352034, 200.0,
        ),
        'ackley_shifted_rotated': (
            320.7122746982101, 320.37825236986316, 321.15434139664916,
            304.1182314052965, 306.1012482364767, 300.0,
        ),
        'rastrigin_shifted_rotated': (
            7144.974473253951, 4081.9490932688477, 20395.297764868064,
            426.2709755887456, 431.0246093416901, 400.0,
        ),
        'schwefel_shifted_rotated': (
            509.3818175023141, 608.7491827989325, 572.190043334596,
            500.0098780303597, 500.037832635688, 500.000025455675,
        ),
        'hybrid_1': None,  # hybrid blocks must be non-empty; got sizes [1, 1, 0] for dim 2
        'hybrid_2': None,  # hybrid blocks must be non-empty; got sizes [0, 0, 1, 1] for dim 2
        'hybrid_3': None,  # hybrid blocks must be non-empty; got sizes [0, 0, 0, 0, 2] for dim 2
        'composition_1': (
            2277194409.1301923, 4798833963.549287, 3832519921.103845,
            3483792.9913970996, 6385747.593679624, 900.0,
        ),
        'composition_2': (
            7132896798.925604, 753885600.0478973, 9783719778.130613,
            17602473.917189367, 34434022.75458548, 1000.0,
        ),
        'composition_3': (
            768305935.2186985, 1121683073.6926587, 1805888436.7213218,
            24887730.243735015, 45487201.0580893, 1100.0,
        ),
    },
    30: {
        'elliptic_rotated': (
            25961356628.30997, 2277392527.696204, 27862641486.028664,
            1713400.429231745, 2826345.5285950378, 100.0,
        ),
        'cigar_rotated': (
            133166277259.64404, 147051820834.24362, 191894618257.9843,
            28885643.73670045, 24129936.485721007, 200.0,
        ),
        'ackley_shifted_rotated': (
            321.68870296357795, 321.7425036842529, 321.4924444078038,
            305.51790324146447, 305.50231320803874, 300.0,
        ),
        'rastrigin_shifted_rotated': (
            193415.57221576778, 178475.09434553617, 134459.89794979116,
            753.4977354390478, 790.5590301979706, 400.0,
        ),
        'schwefel_shifted_rotated': (
            632.8730956446725, 609.1713748190832, 585.8945347828376,
            500.02250810915393, 500.02127705775274, 500.00038183512333,
        ),
        'hybrid_1': (
            13549225701.838608, 3139021502.9838247, 4891550215.695289,
            1994547.3084624533, 891671.3673940372, 600.0,
        ),
        'hybrid_2': (
            7105649169.60792, 26679930151.88003, 48668016888.9474,
            7611537.936766199, 3878178.534762487, 700.0,
        ),
        'hybrid_3': (
            40856239234.1158, 43843444987.99084, 27168551244.81396,
            14324187.942854805, 6306156.734721744, 800.0,
        ),
        'composition_1': (
            11131808634.776295, 3687999368.2315288, 9919235633.159946,
            9834722.960009433, 9219225.645448696, 900.0,
        ),
        'composition_2': (
            183518168474.16235, 94458053119.8915, 216335940429.34293,
            350449733.4389482, 337843315.0467457, 1000.0,
        ),
        'composition_3': (
            37616731944.68211, 36145807593.17423, 37357700103.437614,
            593928878.6804013, 578762095.7227256, 1100.0,
        ),
    },
    100: {
        'elliptic_rotated': (
            71019090924.90594, 47262296583.17733, 25544583319.16392,
            5440418.841006372, 11863617.96671621, 100.0,
        ),
        'cigar_rotated': (
            433532556785.6375, 607455919963.2351, 432184298454.445,
            111796773.78662382, 95881630.13756579, 200.0,
        ),
        'ackley_shifted_rotated': (
            321.7652003793925, 321.80168445027715, 321.73142340143363,
            305.6193303968562, 305.3031291841514, 300.0,
        ),
        'rastrigin_shifted_rotated': (
            575323.5513691808, 606556.3543658449, 428828.4153452106,
            1537.054318530716, 1546.2379387440033, 400.0,
        ),
        'schwefel_shifted_rotated': (
            614.3645895826849, 595.1459141559753, 603.5439426178273,
            500.02330591890495, 500.020435485254, 500.00127278374566,
        ),
        'hybrid_1': (
            24146420474.37836, 23225076855.005463, 9968246127.29115,
            2914875.0207034564, 1792980.703574387, 600.0,
        ),
        'hybrid_2': (
            134126925340.89307, 142677686376.93176, 74681136097.03514,
            26635155.65025188, 16670865.681324944, 700.0,
        ),
        'hybrid_3': (
            104814384293.53647, 121869108359.95154, 155855843324.0439,
            23090465.133498542, 15682892.908675665, 800.0,
        ),
        'composition_1': (
            34389688892.935, 46758878219.710236, 59038220131.54736,
            91885664.15002209, 86121078.34255305, 900.0,
        ),
        'composition_2': (
            610663415501.3639, 568557015024.0143, 631420079524.1329,
            672899334.6893054, 630467300.8860706, 1000.0,
        ),
        'composition_3': (
            151530041591.03198, 205735521810.17685, 170103652899.44998,
            2172288937.4759145, 2028556424.5319529, 1100.0,
        ),
    },
}


@pytest.mark.parametrize("name", available_functions())
@pytest.mark.parametrize("dim", sorted(REGISTRY_VALUES))
def test_registry_values_pinned(dim, name):
    expected = REGISTRY_VALUES[dim][name]
    if expected is None:
        with pytest.raises(ContractError, match="hybrid blocks must be non-empty"):
            registry(name, dim, seed=0)
        return
    spec, fn = registry(name, dim, seed=0)
    assert tuple(fn(x) for x in registry_points(spec)) == expected  # exact, no tolerance


@pytest.mark.parametrize("name", available_functions())
def test_registry_builds_only_dimensions_every_part_accepts(name):
    rng = np.random.default_rng(5)
    for dim in range(1, 13):
        try:
            spec, fn = registry(name, dim, seed=0)
        except ContractError:
            continue
        # a random point reaches every composition component, the optimum only the first
        for x in (spec.optimum, rng.uniform(-100.0, 100.0, dim)):
            assert np.isfinite(fn(x)), (name, dim)


def test_registry_rejects_a_cigar_block_of_one_dimension():
    for name, dim in [("hybrid_2", 5), ("hybrid_3", 5), ("cigar_rotated", 1),
                      ("composition_2", 1), ("composition_3", 1)]:
        with pytest.raises(ContractError, match=f"{name} at dimension {dim} gives cigar 1"):
            registry(name, dim, seed=0)


@pytest.mark.parametrize("name", available_functions())
def test_registry_objective_refuses_points_of_the_wrong_width(name):
    dim = 10
    _, fn = registry(name, dim, seed=0)
    for x in (np.zeros(dim - 1), np.zeros((3, dim + 1)), 0.0):
        with pytest.raises(ContractError, match=f"^{name} takes points of width {dim}; got shape "):
            fn(x)


def test_hybrid_3_splits_dimensions_7_and_8_by_largest_remainder():
    # the rounded splits, [1, 1, 1, 1, 3] and [2, 2, 2, 2, 0], give cigar one
    # coordinate and leave the last block empty
    parts = _REGISTRY["hybrid_3"][1]
    rng = np.random.default_rng(2)
    for dim, sizes in [(7, [2, 2, 1, 1, 1]), (8, [2, 2, 2, 1, 1])]:
        assert _block_sizes(parts, dim) == sizes
        z = rng.uniform(-5.0, 5.0, dim)
        ends = np.cumsum([0] + sizes)
        want = sum(base(z[a:b]) for (base, _), a, b in zip(parts, ends[:-1], ends[1:]))
        assert _hybrid(parts, sizes)(z) == want
        spec, fn = registry("hybrid_3", dim, seed=0)
        assert np.isfinite(fn(rng.uniform(-100.0, 100.0, (5, dim)))).all()
        assert fn(spec.optimum) == pytest.approx(spec.bias, abs=1e-9)


@pytest.mark.parametrize("name", ["hybrid_1", "hybrid_2", "hybrid_3"])
def test_block_sizes_keep_the_rounded_split_wherever_it_fits(name):
    parts = _REGISTRY[name][1]
    for dim in range(1, 201):
        rounded = [int(round(fraction * dim)) for _, fraction in parts[:-1]]
        rounded.append(dim - sum(rounded))
        if all(size >= base.least_dimension for (base, _), size in zip(parts, rounded)):
            assert _block_sizes(parts, dim) == rounded, dim


# ---------------------------------------------------------------------------
# stacked input: each row's value is the 1-D value, to the bit
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.sampled_from(available_functions()), st.sampled_from([2, 5, 10, 30, 100]),
       st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_stacked_rows_equal_one_point_calls(name, dim, population, seed):
    if name.startswith("hybrid"):
        dim = max(dim, 10)  # the hybrids need a few dimensions per part
    spec, fn = registry(name, dim, seed=seed % 7)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-100.0, 100.0, (population, dim))
    special = rng.permutation(population)
    x[special[0]] = spec.optimum  # a composition's first center: the zero-distance branch
    if population > 1 and name != "schwefel_shifted_rotated":  # far outside Schwefel's domain
        # every composition weight underflows: the nearest-center fallback
        x[special[1:3]] = rng.choice([-1.0, 1.0], (len(special[1:3]), dim)) * 1e5
    values = fn(x)
    assert isinstance(values, np.ndarray) and values.shape == (population,)
    assert values.tolist() == [fn(row) for row in x]
    assert all(type(fn(row)) is float for row in x[:2])


def test_stacks_of_any_leading_shape_reduce_the_last_axis():
    x = np.random.default_rng(4).uniform(-3.0, 3.0, (2, 3, 6))
    for fn in (elliptic, cigar, ackley, rastrigin, schwefel,
               _hybrid([(rastrigin, 0.5), (cigar, 0.5)], [3, 3])):
        assert fn(x).shape == (2, 3)
        assert fn(x).tolist() == [[fn(p) for p in row] for row in x]
    comps = two_component_symmetric()
    x4 = x[..., :4].copy()
    x4[0, 1] = comps[1].shift
    w = composition_weights(x4, comps)
    assert w.shape == (2, 3, 2) and w[0, 1].tolist() == [0.0, 1.0]
    assert w.tolist() == [[composition_weights(p, comps).tolist() for p in row] for row in x4]
    c = _composition(comps)
    assert c(x4).tolist() == [[c(p) for p in row] for row in x4]
    assert np.array_equal(moved(np.ones(6), np.eye(6)[::-1])(x), (x - 1.0)[..., ::-1])


def test_composition_far_rows_fall_back_to_the_nearest_center():
    comps = two_component_symmetric()
    x = np.array([[1e6, 1e6, 1e6, 1e6], [-1e6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    w = composition_weights(x, comps)
    assert w[:2].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert w[2] == pytest.approx([0.5, 0.5])
    # a component with zero weight is skipped, so its inf never meets the 0
    endless = CompositionComponent(lambda p: np.full(np.shape(p)[:-1], np.inf)[()], 5.0, 0.0,
                                   comps[1].shift)
    c = _composition([comps[0], endless])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = c(np.stack([x[0], endless.shift]))
    assert values.tolist() == [c(x[0]), np.inf] == [comps[0].objective(x[0]), np.inf]


def scalar_composition_weights(x, components):
    """composition_weights as one point at a time: the reference loop."""
    dists = np.array([np.linalg.norm(x - c.shift) for c in components])
    w = np.zeros(len(components))
    if np.any(dists == 0.0):
        w[int(np.argmin(dists))] = 1.0
        return w
    for i, c in enumerate(components):
        w[i] = np.exp(-dists[i] ** 2 / (2.0 * x.size * c.sigma**2)) / dists[i]
    total = w.sum()
    if total == 0.0:
        w[int(np.argmin(dists))] = 1.0
        return w
    return w / total


def test_stacked_forms_match_the_scalar_reference_loops():
    # a float64 scalar's ** 2 (libm pow) and an array's (v * v) differ in the
    # last bit for about one value in a thousand; these rows meet such values
    rng = np.random.default_rng(8)
    comps = [CompositionComponent(None, sigma, 0.0, rng.uniform(-80.0, 80.0, 3))
             for sigma in (10.0, 20.0, 30.0)]
    x = rng.uniform(-100.0, 100.0, (3000, 3))
    assert composition_weights(x, comps).tolist() == [
        scalar_composition_weights(p, comps).tolist() for p in x]
    assert cigar(x).tolist() == [float(p[0] ** 2 + 1e6 * (p[1:] ** 2).sum()) for p in x]
    assert elliptic(x[:, :1]).tolist() == [float(p[0] ** 2) for p in x]
