import math

import numpy as np
import pytest

from waveuc.basis import gauss_lobatto_nodes, gauss_rule
from waveuc.config import PRESETS
from waveuc.mesh import build_interval_mesh
from waveuc.postproc import (
    ERROR_QUADRATURE_POINTS,
    eoc,
    error_norms,
    extract_primal_field,
    lift,
)
from waveuc.slab_forms import SlabSpace, element_dofs

from conftest import SlabFunction, make_system


def random_displacement(space, n_slabs, rng):
    return rng.standard_normal((n_slabs, space.n_modes, space.n_x))


def test_time_continuous_input_unchanged(rng):
    mesh = build_interval_mesh(4)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    u = random_displacement(space, 3, rng)
    for n in range(1, 3):
        u[n, 0] = u[n - 1, -1]
    sol = lift(space, u)
    assert np.allclose(sol.coeffs, u, atol=1e-13)


def test_lifted_continuity_random(rng):
    mesh = build_interval_mesh(4)
    for q in (1, 2):
        space = SlabSpace(mesh, 2, q, dt=0.25)
        u = random_displacement(space, 4, rng)
        sol = lift(space, u)
        # each slab's end against the next slab's start
        left, right = sol.coeffs_at(1.0)[:-1], sol.coeffs_at(0.0)[1:]
        assert np.abs(left - right).max() <= 1e-12


def test_first_slab_untouched(rng):
    mesh = build_interval_mesh(4)
    space = SlabSpace(mesh, 1, 2, dt=0.25)
    u = random_displacement(space, 3, rng)
    sol = lift(space, u)
    xi = np.linspace(0, 1, 7)
    orig = space.tbasis.eval(xi) @ u[0]
    assert np.allclose(sol.coeffs_at(xi)[0], orig, atol=1e-13)


def test_piecewise_constant_unit_jump():
    # constant 0 on slab 0, constant 1 on slab 1: the lifted function takes
    # the left limit at the interface and is affine on slab 1
    mesh = build_interval_mesh(2)
    space = SlabSpace(mesh, 1, 1, dt=0.5)
    u = np.zeros((2, 2, space.n_x))
    u[1] = 1.0
    sol = lift(space, u)
    start, middle, end = sol.coeffs_at([0.0, 0.5, 1.0])[1]
    assert np.allclose(start, 0.0, atol=1e-13)
    assert np.allclose(middle, 0.5, atol=1e-13)
    assert np.allclose(end, 1.0, atol=1e-13)


def test_q0_input_lifts_to_affine(rng):
    mesh = build_interval_mesh(2)
    space = SlabSpace(mesh, 1, 0, dt=0.5)
    u = random_displacement(space, 3, rng)
    sol = lift(space, u)
    assert sol.tbasis.degree == 1
    left, right = sol.coeffs_at(1.0)[:-1], sol.coeffs_at(0.0)[1:]
    assert np.abs(left - right).max() <= 1e-12


@pytest.mark.parametrize("q", [1, 2])
def test_coeffs_at_is_the_per_slab_evaluation(q, rng):
    mesh = build_interval_mesh(4)
    space = SlabSpace(mesh, 2, q, dt=0.25)
    sol = lift(space, random_displacement(space, 3, rng))
    for xi in (0.3, np.linspace(0, 1, 5), np.array([[0.1, 0.9], [0.5, 1.0]])):
        for deriv in (0, 1):
            got = sol.coeffs_at(xi, deriv)
            assert got.shape == (3,) + np.shape(xi) + (space.n_x,)
            for n in range(3):
                want = (sol.tbasis.eval(xi, deriv) @ sol.coeffs[n]
                        / sol.dt**deriv)
                assert (np.abs(got[n] - want).max()
                        <= 1e-14 * np.abs(want).max())


def test_lift_is_projection(rng):
    mesh = build_interval_mesh(4)
    space = SlabSpace(mesh, 1, 1, dt=0.25)
    u = random_displacement(space, 3, rng)
    once = lift(space, u)
    twice = lift(space, once.coeffs)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-12)


def test_theta_norm_values():
    # integrating the lifting of a unit jump recovers the blending weight
    # norms |theta| = sqrt(dt/3) and |theta'| = dt^(-1/2)
    mesh = build_interval_mesh(2)
    dt = 0.125
    space = SlabSpace(mesh, 1, 1, dt=dt)
    u = np.zeros((2, 2, space.n_x))
    u[0] = 1.0  # unit jump downward at the interface
    sol = lift(space, u)
    rule = gauss_rule(4)
    # on slab 1 the lifted function equals -theta at every node
    theta, dtheta = (-sol.coeffs_at(rule.points, deriv)[1, :, 0]
                     for deriv in (0, 1))
    sq = dt * rule.weights @ theta**2
    dsq = dt * rule.weights @ dtheta**2
    assert abs(math.sqrt(sq) - math.sqrt(dt / 3)) <= 1e-13
    assert abs(math.sqrt(dsq) - dt**-0.5) <= 1e-13


def test_error_norms_exact_for_representable():
    # u(t, x) = x - t is in the discrete space for k = q = 1
    s = make_system(n_elems=4, n_slabs=2)
    space = s.primal
    nodes = np.linspace(0, 1, space.n_x)
    u = np.empty((s.n_slabs, space.n_modes, space.n_x))
    dt = s.config.dt
    for n in range(s.n_slabs):
        for m, tau in enumerate(space.tbasis.nodes):
            u[n, m] = nodes - (n * dt + dt * tau)
    sol = lift(space, u)
    report = error_norms(
        lambda t, x: x - t, lambda t, x: -np.ones_like(x), sol
    )
    assert report.err_LinfL2_u <= 1e-10
    assert report.err_L2L2_ut <= 1e-10


def test_error_norm_of_zero_solution():
    s = make_system(n_elems=8, n_slabs=4)
    preset = PRESETS["gcc1d"]
    u = np.zeros((s.n_slabs, s.primal.n_modes, s.primal.n_x))
    sol = lift(s.primal, u)
    report = error_norms(preset.u, preset.dt_u, sol)
    # max over t of |cos(pi t)| sqrt(int sin^2) = sqrt(1/2)
    assert report.err_LinfL2_u == pytest.approx(math.sqrt(0.5), rel=1e-6)


def test_restricted_region_definition():
    region = PRESETS["nogcc1d"].restricted_region
    assert region(0.0, 0.5) == pytest.approx((0.0, 0.25))
    assert region(0.25, 0.5) == pytest.approx((0.0, 0.5))
    assert region(0.5, 0.5) == pytest.approx((0.0, 0.25))
    # a later final time widens the cone up to the domain's end
    assert region(0.5, 2.0) == pytest.approx((0.0, 0.75))
    assert region(1.0, 2.0) == pytest.approx((0.0, 1.0))
    assert region(2.0, 2.0) == pytest.approx((0.0, 0.25))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_cone_at_half_is_the_fixed_cone_bitwise(n, q):
    # at T = 0.5 the cone is (0, min(0.25 + t, 0.75 - t)) bit for bit at
    # every time error_norms samples
    cone = PRESETS["nogcc1d"].restricted_region
    space = SlabSpace(build_interval_mesh(n), 1, q, dt=0.5 / n)
    sol = lift(space, np.zeros((n, space.n_modes, space.n_x)))
    calls = []

    def recorded(t, T):
        calls.append((t, T))
        return cone(t, T)

    zero = lambda t, x: 0.0 * x  # noqa: E731
    error_norms(zero, zero, sol, region=recorded)
    assert len(calls) == 2
    for t, T in calls:
        assert T == 0.5
        lo, hi = cone(t, T)
        assert lo == 0.0
        assert np.array_equal(hi, np.minimum(0.25 + t, 0.75 - t))


def test_restricted_norms_read_the_final_time():
    # T = 2: an error that is nonzero only for t > 0.75, where the cone of
    # T = 0.5 would be empty, counts over (0, min(0.25 + t, 2.25 - t, 1))
    s = make_system(preset="nogcc1d", n_elems=8, n_slabs=8, T=2.0)
    sol = lift(s.primal, np.zeros((8, s.primal.n_modes, s.primal.n_x)))
    late = lambda t, x: (t > 0.75) + 0.0 * x  # noqa: E731
    report = error_norms(late, late, sol,
                         region=PRESETS["nogcc1d"].restricted_region)
    assert report.err_LinfL2_u_restricted == pytest.approx(1.0, rel=1e-12)
    # length 1 on (0.75, 1.25), then 2.25 - t down to 0.25 at t = 2
    assert report.err_L2L2_ut_restricted == pytest.approx(
        math.sqrt(0.5 + 0.75 * 0.625), rel=1e-12)


def test_restricted_norm_monotone(rng):
    s = make_system(preset="nogcc1d", n_elems=8, n_slabs=4)
    preset = PRESETS["nogcc1d"]
    u = rng.standard_normal((s.n_slabs, s.primal.n_modes, s.primal.n_x))
    sol = lift(s.primal, u)
    small = error_norms(preset.u, preset.dt_u, sol,
                        region=lambda t, T: (0.0, 0.25))
    large = error_norms(preset.u, preset.dt_u, sol,
                        region=lambda t, T: (0.0, 0.75))
    full = error_norms(preset.u, preset.dt_u, sol)
    assert small.err_L2L2_ut_restricted <= large.err_L2L2_ut_restricted
    assert large.err_L2L2_ut_restricted <= full.err_L2L2_ut + 1e-12
    assert large.err_LinfL2_u_restricted <= full.err_LinfL2_u + 1e-12


def test_restricted_clipping_matches_analytic():
    # zero solution against a space-independent exact function: the
    # restricted squared norm is the region length times the time factor
    s = make_system(n_elems=4, n_slabs=2)
    u = np.zeros((s.n_slabs, s.primal.n_modes, s.primal.n_x))
    sol = lift(s.primal, u)
    report = error_norms(
        lambda t, x: np.ones_like(x),
        lambda t, x: np.ones_like(x),
        sol,
        region=lambda t, T: (0.0, 0.3),  # cuts through an element
    )
    assert report.err_L2L2_ut_restricted == pytest.approx(
        math.sqrt(0.3 * s.config.T), rel=1e-12
    )


def pointwise_error_norms(u, dt_u, sol, region):
    """Oracle for error_norms: the same time points, but every spatial
    integral split at the mesh vertices and the region endpoints, with an
    8-point Gauss rule on each piece and the lifted function evaluated point
    by point (SlabFunction)."""
    mesh = sol.mesh
    space = SlabSpace(mesh, sol.xbasis.degree, sol.tbasis.degree, sol.dt)
    xg, wg = np.polynomial.legendre.leggauss(8)

    def sq_error(f, uh, lo, hi):
        cuts = np.unique(np.clip(np.r_[mesh.vertices, lo, hi], lo, hi))
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            x = a + (b - a) * (xg + 1) / 2
            total += (b - a) / 2 * wg @ (f(x) - uh(x)) ** 2
        return total

    samples = gauss_lobatto_nodes(sol.tbasis.cardinality + 2)
    trule = gauss_rule(ERROR_QUADRATURE_POINTS)
    T = sol.n_slabs * sol.dt
    linf = [0.0, 0.0]
    l2 = [0.0, 0.0]
    for n in range(sol.n_slabs):
        fn = SlabFunction(space, [sol.coeffs[n], np.zeros_like(sol.coeffs[n])])
        for xi in samples:
            tau = (n + xi) * sol.dt
            for i, (lo, hi) in enumerate([(0.0, 1.0), region(tau, T)]):
                e = sq_error(lambda x: u(tau, x),
                             lambda x: fn(0, xi, x), lo, hi)
                linf[i] = max(linf[i], e)
        for w, xi in zip(trule.weights, trule.points):
            tau = (n + xi) * sol.dt
            for i, (lo, hi) in enumerate([(0.0, 1.0), region(tau, T)]):
                l2[i] += sol.dt * w * sq_error(
                    lambda x: dt_u(tau, x),
                    lambda x: fn(0, xi, x, dtime=1), lo, hi)
    return np.sqrt([linf[0], l2[0], linf[1], l2[1]])


def _window(t, T):
    # both endpoints move and cut elements
    return (0.15 + 0.3 * t, 0.7 - 0.2 * t)


@pytest.mark.parametrize("region", [PRESETS["nogcc1d"].restricted_region,
                                    _window], ids=["cone", "window"])
@pytest.mark.parametrize("k", [1, 2])
def test_error_norms_match_pointwise_oracle(k, region, rng):
    preset = PRESETS["nogcc1d"]
    s = make_system(preset="nogcc1d", n_elems=8, n_slabs=4, k=k, q=k,
                    kstar=k, qstar=k)
    u = rng.standard_normal((s.n_slabs, s.primal.n_modes, s.primal.n_x))
    sol = lift(s.primal, u)
    # the region's moving endpoints cut an element at every interior sample
    samples = gauss_lobatto_nodes(sol.tbasis.cardinality + 2)
    ends = np.array([region((n + xi) * sol.dt, s.config.T)
                     for n in range(s.n_slabs) for xi in samples])
    off_vertex = np.abs(ends / s.mesh.h - np.round(ends / s.mesh.h)) > 1e-3
    assert off_vertex[:, 1].sum() >= len(ends) // 2
    report = error_norms(preset.u, preset.dt_u, sol, region=region)
    got = [report.err_LinfL2_u, report.err_L2L2_ut,
           report.err_LinfL2_u_restricted, report.err_L2L2_ut_restricted]
    want = pointwise_error_norms(preset.u, preset.dt_u, sol, region)
    assert got == pytest.approx(want, rel=1e-10)


def test_extract_primal_field(rng):
    s = make_system(n_elems=4, n_slabs=2)
    x = rng.standard_normal(s.ndof)
    u1 = extract_primal_field(s, x)
    n_f = s.primal.n_field
    P = s.slab_view(x)[:, : s.n_primal]
    assert np.array_equal(u1.reshape(s.n_slabs, -1), P[:, :n_f])


def test_eoc_examples():
    assert eoc([0.4, 0.1]) == pytest.approx([2.0])
    assert eoc([0.4, 0.2]) == pytest.approx([1.0])
    assert eoc([0.3, 0.3]) == pytest.approx([0.0])
    assert eoc([0.1, 0.0]) == [math.inf]
    with pytest.raises(ValueError):
        eoc([0.5])


def slab_by_slab_error_norms(u, dt_u, sol, region):
    """The error norms one slab at a time, with the lifted function
    evaluated at every quadrature point of every element (the reference
    formula that error_norms batches over all slabs)."""
    mesh, xb, tb, dt = sol.mesh, sol.xbasis, sol.tbasis, sol.dt
    samples = gauss_lobatto_nodes(tb.cardinality + 2)
    rule = gauss_rule(ERROR_QUADRATURE_POINTS)
    x0, x1 = mesh.vertices[:-1], mesh.vertices[1:]
    dofs = element_dofs(mesh, xb.degree)

    def squared(f, tau, c, reg):
        lo, hi = (0.0, 1.0) if reg is None else reg(tau, sol.n_slabs * dt)
        a, b = np.maximum(x0, lo), np.minimum(x1, hi)
        length = np.maximum(b - a, 0.0)
        xq = a[:, None] + length[:, None] * rule.points
        uh = np.einsum("eqi,ei->eq", xb.eval((xq - x0[:, None]) / mesh.h),
                       c[dofs])
        return length @ ((f(tau, xq) - uh) ** 2 @ rule.weights)

    regions = [None] if region is None else [None, region]
    linf = [0.0] * len(regions)
    l2 = [0.0] * len(regions)
    for n, coeffs in enumerate(sol.coeffs):
        for i, reg in enumerate(regions):
            for xi in samples:
                c = tb.eval(np.array(xi)) @ coeffs
                linf[i] = max(linf[i], squared(u, (n + xi) * dt, c, reg))
            for w, xi in zip(rule.weights, rule.points):
                c = tb.eval(np.array(xi), deriv=1) @ coeffs / dt
                l2[i] += dt * w * squared(dt_u, (n + xi) * dt, c, reg)
    return [math.sqrt(v) for pair in zip(linf, l2) for v in pair]


@pytest.mark.parametrize("restricted", [False, True],
                         ids=["whole", "restricted"])
@pytest.mark.parametrize("preset_name", ["gcc1d", "nogcc1d"])
def test_error_norms_match_slab_by_slab_formula(preset_name, restricted):
    preset = PRESETS[preset_name]
    s = make_system(preset=preset_name, n_elems=8, n_slabs=4, k=2, q=2,
                    kstar=2, qstar=2)
    space = s.primal
    # the nodal interpolant of the exact solution: small errors, so the
    # comparison sees the rounding of the difference u - u_h
    times = (np.arange(s.n_slabs)[:, None] + space.tbasis.nodes) * s.config.dt
    nodes = np.linspace(0.0, 1.0, space.n_x)
    sol = lift(space, preset.u(times[..., None], nodes))
    region = preset.restricted_region if restricted else None
    if restricted:
        # on gcc1d, a window whose ends cut elements at most sample times
        region = region or (lambda t, T: (0.15 + 0.3 * t, 0.7 - 0.2 * t))
    report = error_norms(preset.u, preset.dt_u, sol, region=region)
    got = [report.err_LinfL2_u, report.err_L2L2_ut,
           report.err_LinfL2_u_restricted, report.err_L2L2_ut_restricted]
    want = slab_by_slab_error_norms(preset.u, preset.dt_u, sol, region)
    assert got[:len(want)] == pytest.approx(want, rel=1e-12, abs=0)
    assert got[len(want):] == [None] * (4 - len(want))
