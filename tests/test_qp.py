import numpy as np
import pytest

from unisafe import (
    ConstraintParams,
    InfeasibleError,
    make_example_1,
    project_onto_polytope,
    project_with_state,
    solve_min_norm_qp,
)

from oracles import exact_projection


def random_feasible_instance(rng, n, m, allow_zero_rows=False):
    anchor = rng.normal(size=m)
    b = rng.uniform(-2, 2, (n, m))
    if allow_zero_rows and rng.random() < 0.3:
        b[rng.integers(0, n)] = 0.0
    slack = rng.uniform(0.0, 1.5, n)
    a = -slack - b @ anchor
    return ConstraintParams(a, b)


def test_min_norm_halfline():
    p = ConstraintParams(np.array([1.0]), np.array([[1.0]]))
    assert solve_min_norm_qp(p) == pytest.approx([-1.0])


def test_min_norm_interior_origin():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    assert solve_min_norm_qp(p) == pytest.approx([0.0])


def test_min_norm_halfspace_in_plane():
    p = ConstraintParams(np.array([1.0]), np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(solve_min_norm_qp(p), [-1.0, 0.0], atol=1e-12)


def test_projection_identity_on_interior_points():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    v = np.array([0.25])
    out = project_onto_polytope(p, v)
    assert out is not v  # fresh array, same value
    np.testing.assert_array_equal(out, v)


def test_projection_onto_halfline():
    p = ConstraintParams(np.array([1.0]), np.array([[1.0]]))
    assert project_onto_polytope(p, np.zeros(1)) == pytest.approx([-1.0])


def test_projection_corner():
    p = ConstraintParams(np.array([0.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(
        project_onto_polytope(p, np.array([1.0, 1.0])), [0.0, 0.0], atol=1e-12
    )


def test_zero_row_dropped_when_vacuous():
    p = ConstraintParams(np.array([-1.0, 0.5]), np.array([[0.0], [1.0]]))
    out = project_onto_polytope(p, np.zeros(1))
    assert out[0] == pytest.approx(-0.5)


def test_zero_row_infeasible_when_impossible():
    p = ConstraintParams(np.array([1.0]), np.array([[0.0]]))
    with pytest.raises(InfeasibleError):
        project_onto_polytope(p, np.zeros(1))


def test_contradictory_system_raises():
    p = ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))
    with pytest.raises(InfeasibleError):
        solve_min_norm_qp(p)


def test_kkt_conditions_hold():
    rng = np.random.default_rng(21)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = random_feasible_instance(rng, n, m, allow_zero_rows=True)
        v = rng.normal(size=m) * 2
        u, state = project_with_state(p, v)
        resid = p.a + p.b @ u
        assert np.max(resid) <= 1e-9
        # stationarity and complementary slackness from the returned
        # multipliers
        grad = u - v
        for idx, lam in zip(state.working_set, state.multipliers):
            assert lam >= -1e-9
            assert abs(resid[idx]) <= 1e-8
            grad += lam * p.b[idx]
        assert np.linalg.norm(grad) <= 1e-8


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(22)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        if rng.random() < 0.5:
            p = random_feasible_instance(rng, n, m)
        else:
            p = ConstraintParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, m)))
        v = rng.normal(size=m) * 1.5
        expected = exact_projection(p, v)
        if expected is None:
            with pytest.raises(InfeasibleError):
                project_onto_polytope(p, v)
        else:
            got = project_onto_polytope(p, v)
            assert np.linalg.norm(got - expected) <= 1e-9
        done += 1



@pytest.mark.parametrize(
    "p, v",
    [
        pytest.param(
            ConstraintParams(np.array([0.5, 0.5, -1.0]), np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])),
            np.array([1.0, 1.0]),
            id="duplicated-rows",
        ),
        pytest.param(
            ConstraintParams(np.array([-1.0, 1.0]), np.array([[1.0], [-1.0]])),
            np.array([0.0]),
            id="anti-parallel-single-point",
        ),
        pytest.param(
            ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]])),
            np.array([0.0]),
            id="anti-parallel-disjoint",
        ),
        pytest.param(
            # The planar example on its obstacle diagonal: the two rows are
            # 0.03 rad from anti-parallel, and the min-norm answer is
            # (-0.0184, -0.0184).
            make_example_1(2).constraint_map(np.array([0.184, 0.184])),
            np.zeros(2),
            id="planar-diagonal",
        ),
    ],
)
def test_degenerate_instances_match_oracle(p, v):
    expected = exact_projection(p, v)
    if expected is None:
        with pytest.raises(InfeasibleError) as err:
            project_onto_polytope(p, v)
        assert err.value.max_margin > 0.0
    else:
        assert np.linalg.norm(project_onto_polytope(p, v) - expected) <= 1e-9


# Constraint rows of the unicycle example near its goal: |b_0| ~ 1e-6
# against |b_1| ~ 4, and the two rows are 1e-3 rad from anti-parallel.
UNICYCLE_A = np.array([9.658750081364938e-14, -4.000007986829399])
UNICYCLE_B = np.array([[9.925630779479891e-07, 9.143165401277791e-10], [-4.000007939590307, 0.0]])
UNICYCLE_WARMSTART = np.array([-1.1007028548929947e-06, -1.0139332086930299e-09])


def test_badly_scaled_rows_project_onto_their_vertex():
    # Both rows inset by 1e-3 leave a thin wedge whose nearest point to
    # the warmstart is its vertex, near (-1, -1.1e6).  A search for an
    # interior point before projecting declared this system infeasible.
    p = ConstraintParams(UNICYCLE_A + 1e-3, UNICYCLE_B)
    u, state = project_with_state(p, UNICYCLE_WARMSTART)
    assert state.working_set == [0, 1]
    assert np.all(state.multipliers > 0.0)
    np.testing.assert_allclose(u, np.linalg.solve(p.b, -p.a), rtol=1e-10)
    expected = exact_projection(p, UNICYCLE_WARMSTART)
    assert np.linalg.norm(u - expected) <= 1e-9 * np.linalg.norm(expected)


def test_oracle_rescales_badly_scaled_rows():
    # Rows (1, (1, 2)) and (1, (3, -1)) multiplied by 1e10 and 3e9: the
    # projection of the origin is their vertex (-3/7, -2/7).  On the raw
    # rows the vertex's float equality residual is 4.8e-7, so a float
    # oracle with an absolute tolerance finds no active set at all.
    big = np.array([1e10, 3e9])
    p = ConstraintParams(big, np.array([[1.0, 2.0], [3.0, -1.0]]) * big[:, None])
    expected = exact_projection(p, np.zeros(2))
    assert expected is not None
    np.testing.assert_allclose(expected, np.array([-3.0, -2.0]) / 7.0, rtol=0.0, atol=1e-12)
    assert np.linalg.norm(project_onto_polytope(p, np.zeros(2)) - expected) <= 1e-9


def test_min_norm_is_projection_of_origin():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_feasible_instance(rng, 3, 2)
        np.testing.assert_allclose(
            solve_min_norm_qp(p), project_onto_polytope(p, np.zeros(2)), atol=1e-12
        )


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(24)
    for _ in range(100):
        p = random_feasible_instance(rng, 4, 3)
        v1 = rng.normal(size=3) * 3
        v2 = rng.normal(size=3) * 3
        p1 = project_onto_polytope(p, v1)
        p2 = project_onto_polytope(p, v2)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-12


def test_projection_idempotent():
    rng = np.random.default_rng(25)
    for _ in range(50):
        p = random_feasible_instance(rng, 3, 2)
        v = rng.normal(size=2) * 3
        once = project_onto_polytope(p, v)
        twice = project_onto_polytope(p, once)
        assert np.linalg.norm(once - twice) <= 1e-9
