import numpy as np
import pytest

from epso import ContractError, UnknownFunctionError, registry
from epso.benchmarks import (
    CompositionComponent,
    TransformSpec,
    ackley,
    apply_transform,
    available_functions,
    cigar,
    composition,
    composition_weights,
    elliptic,
    hybrid,
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


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_transform_identity_and_shift():
    t = TransformSpec(np.zeros(3), np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(apply_transform(x, t), x)
    t2 = TransformSpec(x.copy(), np.eye(3))
    assert np.array_equal(apply_transform(x, t2), np.zeros(3))


def test_transform_rejects_non_orthonormal():
    with pytest.raises(ContractError):
        TransformSpec(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ContractError):
        TransformSpec(np.zeros(2), 2.0 * np.eye(2))


def test_transform_dimension_mismatch():
    t = TransformSpec(np.zeros(3), np.eye(3))
    with pytest.raises(ContractError):
        apply_transform(np.zeros(4), t)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        q, r = np.linalg.qr(a)
        t = TransformSpec(rng.uniform(-3, 3, 6), q)
        x = rng.uniform(-10, 10, 6)
        assert np.linalg.norm(apply_transform(x, t)) == pytest.approx(
            np.linalg.norm(x - t.shift), abs=1e-9
        )


# ---------------------------------------------------------------------------
# hybrid / composition
# ---------------------------------------------------------------------------

def test_hybrid_single_part_is_base():
    h = hybrid([(rastrigin, 1.0)])
    z = np.array([0.3, -1.2, 0.7])
    assert h(z) == pytest.approx(rastrigin(z))


def test_hybrid_separable_additivity():
    h = hybrid([(rastrigin, 0.5), (rastrigin, 0.5)])
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-5, 5, 8)
        assert h(z) == pytest.approx(rastrigin(z))


def test_hybrid_zero_at_origin_and_validation():
    h = hybrid([(elliptic, 0.5), (cigar, 0.5)])
    assert h(np.zeros(8)) == 0.0
    with pytest.raises(ContractError):
        hybrid([])
    with pytest.raises(ContractError):
        hybrid([(rastrigin, 0.4), (rastrigin, 0.4)])


def test_hybrid_rejects_empty_blocks():
    h = hybrid([(rastrigin, 0.01), (rastrigin, 0.99)])
    with pytest.raises(ContractError):
        h(np.zeros(4))  # first block would round to zero dimensions


def two_component_symmetric():
    return [
        CompositionComponent(lambda x: rastrigin(x - 2.0), 5.0, 0.0, np.full(4, 2.0)),
        CompositionComponent(lambda x: rastrigin(x + 2.0), 5.0, 0.0, np.full(4, -2.0)),
    ]


def test_composition_single_component():
    c = composition([CompositionComponent(lambda x: float(np.sum(x**2)), 3.0, 7.0, np.zeros(3))])
    z = np.array([1.0, 2.0, 2.0])
    assert c(z) == pytest.approx(9.0 + 7.0)


def test_composition_collapses_at_a_shift():
    comps = two_component_symmetric()
    c = composition(comps)
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


def test_composition_requires_components():
    with pytest.raises(ContractError):
        composition([])


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
        spec, _ = registry(name, 8, seed=9)
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
    far = rng.uniform(-100.0, 100.0, (3, 10))
    near = rng.normal(0.0, 1.0, (2, 10))
    return list(far) + [spec.optimum + n for n in near] + [spec.optimum]


@pytest.mark.parametrize("name", available_functions())
def test_registry_values_pinned_at_d10(name):
    spec, fn = registry(name, 10, seed=0)
    values = tuple(fn(x) for x in registry_points(spec))
    assert values == REGISTRY_VALUES_D10[name]  # exact, no tolerance
