import math
import warnings

import numpy as np
import pytest

from cbree.numkit import RandomStream
from cbree.problems import (
    GUARD_VALUE,
    KL_MEAN_LEVEL,
    OSCILLATOR_MEAN,
    OSCILLATOR_STD,
    CountedLsf,
    convex_lsf,
    get_problem,
    kl_eigenpairs,
    linear_lsf,
    list_problems,
    make_flowrate_lsf,
    oscillator_lsf,
)


class TestLinear:
    def test_origin(self):
        assert float(linear_lsf(np.zeros(4))[0]) == pytest.approx(3.5)

    def test_boundary(self):
        d = 9
        x = np.full(d, 3.5 / math.sqrt(d))
        assert float(linear_lsf(x)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_point_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 5))
        assert np.allclose(linear_lsf(x) + linear_lsf(-x), 2.0 * 3.5)

    def test_crude_mc_matches_tail_probability(self):
        # Phi(-3.5) oracle via the complementary error function
        p_ref = 0.5 * math.erfc(3.5 / math.sqrt(2.0))
        stream = RandomStream(1)
        n, fails = 10_000_000, 0
        for _ in range(50):
            x = stream.standard_normal((n // 50, 2))
            fails += int(np.count_nonzero(linear_lsf(x) <= 0.0))
        p_hat = fails / n
        se = math.sqrt(p_ref * (1.0 - p_ref) / n)
        assert abs(p_hat - p_ref) < 3.0 * se


class TestConvex:
    def test_origin(self):
        assert float(convex_lsf(np.zeros(2))[0]) == pytest.approx(0.4)

    def test_diagonal_root(self):
        t = 0.4 / math.sqrt(2.0)
        assert float(convex_lsf(np.array([t, t]))[0]) == pytest.approx(0.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 2))
        assert np.allclose(convex_lsf(x), convex_lsf(x[:, ::-1]))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            convex_lsf(np.zeros(3))


class TestOscillator:
    def test_mean_point(self):
        # hand evaluation: omega0 = sqrt(1.1), G = 1.5 - (0.6/1.1) sin(sqrt(1.1)/2)
        assert float(oscillator_lsf(np.zeros(6))[0]) == pytest.approx(1.2268922456109657, abs=1e-12)
        assert float(oscillator_lsf(np.zeros(6))[0]) == pytest.approx(1.226892, abs=1e-6)

    def test_affine_in_yield_component(self):
        # the 3r term makes G affine in u_4 with slope 3 * 0.05
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = rng.normal(size=6) * 0.5
            shifted = u.copy()
            shifted[3] += 1.3
            diff = float(oscillator_lsf(shifted)[0] - oscillator_lsf(u)[0])
            assert diff == pytest.approx(3.0 * 0.05 * 1.3, abs=1e-12)

    def test_transform_moments(self):
        u = RandomStream(3).standard_normal((1_000_000, 6))
        x = OSCILLATOR_MEAN + OSCILLATOR_STD * u
        se_mean = OSCILLATOR_STD / 1000.0
        assert np.all(np.abs(x.mean(axis=0) - OSCILLATOR_MEAN) < 4.0 * se_mean)
        assert np.all(np.abs(x.std(axis=0) - OSCILLATOR_STD) / OSCILLATOR_STD < 0.01)

    def test_impossible_draw_guarded(self):
        u = np.zeros(6)
        u[0] = -25.0  # mass goes negative at ~20 sigma
        assert float(oscillator_lsf(u)[0]) == GUARD_VALUE

    def test_impossible_stiffness_guarded_without_warning(self):
        u = np.zeros(6)
        u[1] = -12.0  # c1 + c2 = -0.1 with the mean mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert float(oscillator_lsf(u)[0]) == GUARD_VALUE

    def test_columns_match_the_row_wise_formula_bitwise(self):
        u = RandomStream(4).standard_normal((5000, 6)) * 3.0
        u[7, 0] = -25.0   # non-positive mass
        u[8, 1] = -12.0   # non-positive stiffness
        u[9, :2] = -25.0  # both
        expected = rowwise_oscillator(u)
        assert np.array_equal(oscillator_lsf(u), expected)
        # the draw holds impossible rows of its own: count them from the
        # mapped inputs rather than pin a number that depends on the draw
        x = OSCILLATOR_MEAN + OSCILLATOR_STD * u
        impossible = (x[:, 0] <= 0.0) | (x[:, 1] + x[:, 2] <= 0.0)
        assert np.all(expected[7:10] == GUARD_VALUE)
        assert np.count_nonzero(expected == GUARD_VALUE) == np.count_nonzero(impossible)
        assert np.array_equal(oscillator_lsf(u[10]), expected[10:11])


def rowwise_oscillator(u):
    """The oscillator formula over ``(n, 6)`` rows, read column by column
    from the mapped rows, with impossible rows masked only at the end."""
    x = OSCILLATOR_MEAN + OSCILLATOR_STD * u
    mass, c1, c2, r, f1, t1 = (x[:, i] for i in range(6))
    bad = (mass <= 0.0) | (c1 + c2 <= 0.0)
    safe_mass = np.where(bad, 1.0, mass)
    with np.errstate(invalid="ignore"):
        omega0 = np.sqrt((c1 + c2) / safe_mass)
        g = 3.0 * r - np.abs(2.0 * f1 / (safe_mass * omega0**2) * np.sin(0.5 * t1 * omega0))
    return np.where(bad, GUARD_VALUE, g)


class TestKlExpansion:
    def test_eigenvalues_positive_decreasing(self):
        fld = kl_eigenpairs(15)
        assert np.all(fld.eigenvalues > 0.0)
        assert np.all(np.diff(fld.eigenvalues) < 0.0)

    def test_trace_bound(self):
        fld = kl_eigenpairs(40)
        assert fld.eigenvalues.sum() <= 0.04 + 1e-12

    def test_captured_variance_fraction(self):
        fld = kl_eigenpairs(10)
        assert fld.eigenvalues.sum() / 0.04 >= 0.9

    def test_eigenfunctions_unit_norm(self):
        fld = kl_eigenpairs(8)
        y = np.linspace(0.0, 1.0, 20001)
        vals = fld.eigenfunctions(y)
        norms = np.trapezoid(vals**2, y, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-4)

    def test_sign_convention(self):
        for n_terms in (8, 40):
            fld = kl_eigenpairs(n_terms)
            assert np.all(fld.eigenfunctions(np.array([0.0]))[:, 0] >= 0.0)

    def test_against_nystrom_oracle(self):
        # dense eigendecomposition of the kernel matrix on a 2000-point grid
        # with trapezoid weights approximates the operator spectrum
        n = 2000
        y = np.linspace(0.0, 1.0, n)
        w = np.full(n, 1.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        kernel = 0.04 * np.exp(-np.abs(y[:, None] - y[None, :]) / 0.3)
        sqrt_w = np.sqrt(w)
        sym = sqrt_w[:, None] * kernel * sqrt_w[None, :]
        oracle = np.linalg.eigvalsh(sym)[::-1][:10]
        fld = kl_eigenpairs(10)
        assert np.max(np.abs(fld.eigenvalues - oracle) / oracle) < 1e-3


def dense_fem_lsf(x, fld, mesh_exponent):
    """Flowrate limit state from an assembled P1 stiffness matrix, solved densely."""
    n_elem = 2**mesh_exponent
    h = 1.0 / n_elem
    sqrt_lam = np.sqrt(fld.eigenvalues)
    mid = (np.arange(n_elem) + 0.5) * h
    a = np.exp(KL_MEAN_LEVEL + x @ (sqrt_lam[:, None] * fld.eigenfunctions(mid)))
    a_end = np.exp(KL_MEAN_LEVEL + x @ (sqrt_lam * fld.eigenfunctions(np.array([1.0]))[:, 0]))
    local = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    k = np.zeros((x.shape[0], n_elem + 1, n_elem + 1))
    for e in range(n_elem):
        k[:, e : e + 2, e : e + 2] += a[:, e, None, None] * local
    # Dirichlet data u(0) = 1, u(1) = 0 moved to the right-hand side
    u_bc = np.zeros(n_elem + 1)
    u_bc[0] = 1.0
    inner = slice(1, n_elem)
    rhs = -k[:, inner, :] @ u_bc
    u = np.linalg.solve(k[:, inner, inner], rhs[..., None])[..., 0]
    return 1.7 + a_end * (0.0 - u[:, -1]) / h


class TestFlowrate:
    @pytest.mark.parametrize("mesh_exponent", [6, 7])
    def test_closed_form_matches_dense_fem_solve(self, mesh_exponent):
        lsf, fld = make_flowrate_lsf(mesh_exponent=mesh_exponent)
        stream = RandomStream(11)
        closed, dense = [], []
        # 2000 draws at 1.5 sigma, in chunks that keep the dense batch small
        for _ in range(8):
            x = 1.5 * stream.standard_normal((250, 10))
            closed.append(lsf(x))
            dense.append(dense_fem_lsf(x, fld, mesh_exponent))
        closed, dense = np.concatenate(closed), np.concatenate(dense)
        assert np.max(np.abs(closed - dense)) <= 1e-10
        assert np.array_equal(closed <= 0.0, dense <= 0.0)
        assert 0 < np.count_nonzero(dense <= 0.0) < dense.size

    def test_constant_field_exact(self):
        # x = 0: coefficient exp(0.1) everywhere, solution linear, flux exact
        lsf, _ = make_flowrate_lsf()
        val = float(lsf(np.zeros(10))[0])
        assert val == pytest.approx(1.7 - math.exp(0.1), abs=1e-12)
        assert val == pytest.approx(0.594829, abs=1e-6)

    def test_mesh_refinement_stability(self):
        # the node-value flux factor against the midpoint element coefficient
        # makes the literal flux expression first-order in the mesh size, so
        # halving 2^-6 moves G by a few 1e-3 at most (measured 4.3e-3 max)
        coarse, _ = make_flowrate_lsf(mesh_exponent=6)
        fine, _ = make_flowrate_lsf(mesh_exponent=7)
        x = RandomStream(4).standard_normal((20, 10))
        assert np.max(np.abs(coarse(x) - fine(x))) <= 8e-3

    def test_wrong_dimension(self):
        lsf, _ = make_flowrate_lsf()
        with pytest.raises(ValueError):
            lsf(np.zeros(9))

    def test_crude_mc_against_reported_value(self):
        # 1e6-sample check against the reported reference 3.026e-4
        problem = get_problem("flowrate")
        stream = RandomStream(5)
        fails = 0
        for _ in range(10):
            x = stream.standard_normal((100_000, 10))
            fails += int(np.count_nonzero(problem.lsf(x) <= 0.0))
        p_hat = fails / 1e6
        se = math.sqrt(p_hat * (1.0 - p_hat) / 1e6)
        assert abs(p_hat - 3.026e-4) < 3.0 * se


class TestCountedWrapper:
    def test_counts_calls(self):
        lsf = CountedLsf(lambda x: np.atleast_2d(x).sum(axis=1))
        for _ in range(3):
            lsf(np.ones(2))
        assert lsf.evaluations == 3

    def test_counts_batch_rows(self):
        lsf = CountedLsf(lambda x: np.atleast_2d(x).sum(axis=1))
        lsf(np.ones((7, 2)))
        assert lsf.evaluations == 7

    def test_scalar_call_returns_float(self):
        lsf = CountedLsf(lambda x: np.atleast_2d(x).sum(axis=1))
        assert isinstance(lsf(np.ones(2)), float)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: np.atleast_2d(x).sum(axis=1, keepdims=True),  # (n, 1)
            lambda x: np.atleast_2d(x).sum(axis=1)[:-1],            # one short
            lambda x: np.atleast_2d(x).sum(),                       # scalar
        ],
        ids=["column", "short", "scalar"],
    )
    def test_wrong_shape_raises(self, fn):
        with pytest.raises(ValueError, match="shape"):
            CountedLsf(fn)(np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        lsf = CountedLsf(lambda x: np.where(np.arange(len(x)) == 1, bad, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            lsf(np.ones((3, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            CountedLsf(lambda x: np.full(len(x), bad))(np.ones(2))

    @pytest.mark.parametrize("imag", [1j, 0j], ids=["imaginary", "zero-imaginary"])
    def test_complex_output_raises(self, imag):
        # a cast to float would drop the imaginary part and return [0, 0, 0]
        with pytest.raises(ValueError, match="complex"):
            CountedLsf(lambda x: x[:, 0] + imag)(np.zeros((3, 2)))


class TestRegistry:
    def test_listing(self):
        rows = {r["name"]: r for r in list_problems()}
        assert rows["linear"]["dim"] == 2
        assert rows["linear-50"]["dim"] == 50
        assert rows["oscillator"]["pf_ref"] == 6.43e-6
        assert rows["flowrate"]["pf_ref"] == 3.026e-4
        assert rows["convex"]["pf_ref"] is None

    def test_linear_reference_is_analytic_tail(self):
        p = get_problem("linear")
        assert p.pf_ref == pytest.approx(0.5 * math.erfc(3.5 / math.sqrt(2.0)), rel=1e-12)
        assert p.pf_ref_source == "analytic"

    def test_fresh_counters(self):
        a = get_problem("linear")
        b = get_problem("linear")
        a.lsf(np.zeros(2))
        assert a.evaluations == 1
        assert b.evaluations == 0

    def test_parametrized_dimension(self):
        p = get_problem("linear-7")
        assert p.dim == 7
        assert float(p.lsf(np.zeros(7))) == pytest.approx(3.5)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_problem("does-not-exist")
