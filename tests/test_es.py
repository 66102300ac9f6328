import copy
import math

import numpy as np
import pytest

from evolin import (CSA, SEP_CMA, FULL_CMA, VARIANTS, NumericalDegeneracyError,
                    ask, cma_popsize, new_strategy, optimize, rl_popsize,
                    sample, tell, tell_arrays)
from evolin.es import Candidate, candidate_z
from evolin.testfuncs import ellipsoid, sphere


def weights_oracle(mu: int) -> list[float]:
    raw = [math.log(mu + 0.5) - math.log(i) for i in range(1, mu + 1)]
    total = sum(raw)
    return [r / total for r in raw]


def make_random_tell_inputs(rng, variant, n, lam):
    params, state = new_strategy(variant, n, float(rng.uniform(0.01, 2.0)),
                                 rng.standard_normal(n), lam)
    # a few warm-up tells so covariance and paths are non-trivial
    for g in range(3):
        cands = ask(params, state, 99)
        for c in cands:
            c.fitness = float(rng.standard_normal())
        state = tell(params, state, cands)
    return params, state


# ---------------------------------------------------------------- new_strategy

def test_population_size_defaults() -> None:
    assert rl_popsize(8) == 32
    assert rl_popsize(1) == 32
    assert rl_popsize(6392) == 128
    assert rl_popsize(100) == 50
    assert cma_popsize(2) == 6
    assert cma_popsize(10) == 10
    params, _ = new_strategy(CSA, 8, 0.1, lam="default")
    assert params.lam == 32
    params, _ = new_strategy(FULL_CMA, 2, 1.0, lam="cma")
    assert params.lam == 6


def test_new_strategy_cartpole_row() -> None:
    params, state = new_strategy(CSA, 8, 0.1, lam=4)
    assert params.lam == 4 and params.mu == 2
    assert state.sigma == 0.1
    np.testing.assert_allclose(params.weights, weights_oracle(2), rtol=1e-15)
    assert state.c_diag is None and state.c_full is None


def test_single_parent_weights() -> None:
    params, _ = new_strategy(SEP_CMA, 1, 1.0, np.zeros(1), lam=2)
    assert params.mu == 1
    np.testing.assert_array_equal(params.weights, [1.0])
    assert params.mu_eff == 1.0
    assert params.c_mu == 0.0  # no rank-mu information from a single parent


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n,lam", [(2, 6), (8, 4), (10, 10), (25, 32)])
def test_parameter_invariants(variant, n, lam) -> None:
    params, state = new_strategy(variant, n, 0.5, lam=lam)
    w = params.weights
    assert len(w) == params.mu == lam // 2
    assert np.all(w > 0) and np.all(np.diff(w) < 0)
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(params.mu_eff - 1.0 / np.sum(w**2)) < 1e-12
    for rate in (params.c_sigma, params.c_c, params.c_1):
        assert 0.0 < rate <= 1.0
    assert 0.0 <= params.c_mu <= 1.0 - params.c_1
    assert params.d_sigma >= 1.0
    assert params.c_m == 1.0
    chi_exact = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))
    assert abs(params.chi_n - chi_exact) / chi_exact < 1e-3
    assert state.g == 0
    np.testing.assert_array_equal(state.p_sigma, np.zeros(n))
    np.testing.assert_array_equal(state.p_c, np.zeros(n))
    if variant == SEP_CMA:
        np.testing.assert_array_equal(state.c_diag, np.ones(n))
    if variant == FULL_CMA:
        np.testing.assert_array_equal(state.c_full, np.eye(n))


def test_new_strategy_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        new_strategy("newton", 4, 1.0)
    with pytest.raises(ValueError):
        new_strategy(CSA, 0, 1.0)
    with pytest.raises(ValueError):
        new_strategy(CSA, 4, 0.0)
    with pytest.raises(ValueError):
        new_strategy(CSA, 4, float("nan"))
    with pytest.raises(ValueError):
        new_strategy(CSA, 4, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        new_strategy(CSA, 4, 1.0, lam=1)
    with pytest.raises(ValueError):
        new_strategy(CSA, 4, 1.0, lam="huge")


# ------------------------------------------------------------------------ ask

def test_ask_moments_match_unit_gaussian() -> None:
    params, state = new_strategy(CSA, 2, 1.0, np.zeros(2), lam=100_000)
    xs = np.stack([c.x for c in ask(params, state, 7)])
    assert np.all(np.abs(xs.mean(axis=0)) < 0.02)
    cov = np.cov(xs.T)
    assert np.all(np.abs(cov - np.eye(2)) < 0.05)


def test_ask_tiny_sigma_collapses_to_mean() -> None:
    params, state = new_strategy(CSA, 2, 1.0, np.array([5.0, 5.0]), lam=8)
    state.sigma = 1e-300
    for c in ask(params, state, 0):
        np.testing.assert_array_equal(c.x, [5.0, 5.0])


def test_ask_is_deterministic_and_indexed() -> None:
    params, state = new_strategy(FULL_CMA, 5, 0.3, np.zeros(5), lam=6)
    a = ask(params, state, 42)
    b = ask(params, state, 42)
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca.x, cb.x)
        np.testing.assert_array_equal(ca.z, cb.z)
    zs = {tuple(c.z) for c in a}
    assert len(zs) == 6  # every index draws from its own stream
    c = ask(params, state, 43)
    assert not np.array_equal(a[0].z, c[0].z)


def test_ask_validates_state() -> None:
    params, state = new_strategy(CSA, 3, 1.0)
    state.sigma = -1.0
    with pytest.raises(ValueError):
        ask(params, state, 0)
    state.sigma = float("inf")
    with pytest.raises(ValueError):
        ask(params, state, 0)
    state.sigma = 1.0
    state.m = np.array([0.0, float("nan"), 0.0])
    with pytest.raises(ValueError):
        ask(params, state, 0)


def test_ask_respects_diagonal_covariance() -> None:
    params, state = new_strategy(SEP_CMA, 2, 1.0, np.zeros(2), lam=60_000)
    state.c_diag = np.array([4.0, 0.25])
    xs = np.stack([c.x for c in ask(params, state, 3)])
    var = xs.var(axis=0)
    assert abs(var[0] - 4.0) < 0.15
    assert abs(var[1] - 0.25) < 0.05


def test_ask_respects_full_covariance() -> None:
    params, state = new_strategy(FULL_CMA, 2, 1.0, np.zeros(2), lam=60_000)
    c_target = np.array([[2.0, 0.8], [0.8, 1.0]])
    state.c_full = c_target.copy()
    from evolin.es import _refresh_eigensystem
    _refresh_eigensystem(state, 0)
    xs = np.stack([c.x for c in ask(params, state, 3)])
    emp = np.cov(xs.T)
    assert np.all(np.abs(emp - c_target) < 0.08)


@pytest.mark.parametrize("indexes", [[5], range(2, 6), [7, 0, 3]],
                         ids=["single", "middle-range", "unordered"])
def test_sample_matches_ask_rows(indexes) -> None:
    rng = np.random.default_rng(11)
    for variant in VARIANTS:
        params, state = make_random_tell_inputs(rng, variant, 6, 8)
        cands = ask(params, state, 2024)
        z, x = sample(params, state, 2024, indexes)
        assert z.shape == x.shape == (len(indexes), params.n)
        for row, i in enumerate(indexes):
            assert cands[i].index == i
            assert z[row].tobytes() == cands[i].z.tobytes()
            assert x[row].tobytes() == cands[i].x.tobytes()


def test_candidate_z_rejects_bad_seed() -> None:
    for seed, g, i in ((-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 0, -1),
                       (0, 0, 2.7), (0, 2.9, 1), (0, 0, True), (0, True, 0),
                       (0, 0, "3"), (0, "2", 0), (0, 0, np.float64(1.0)),
                       (0, 0, np.True_), (0, 0, np.int64(-1))):
        with pytest.raises(ValueError):
            candidate_z(seed, g, i, 3)
    params, state = new_strategy(CSA, 3, 1.0)
    state.g = 1
    with pytest.raises(ValueError):
        sample(params, state, 5, np.array([0.5, 1.5]))
    # numpy integers are read as the ints they hold
    assert candidate_z(0, np.uint64(2), np.int32(3), 3).tobytes() == \
        candidate_z(0, 2, 3, 3).tobytes()


# ----------------------------------------------------------------------- tell

def selection_oracle(cands, mu, mode):
    sign = -1.0 if mode == "maximize" else 1.0
    order = sorted(cands, key=lambda c: (sign * c.fitness, c.index))
    return order[:mu]


def mean_oracle(m, c_m, weights, selected):
    out = []
    for j in range(len(m)):
        acc = 0.0
        for w, c in zip(weights, selected):
            acc += w * (c.x[j] - m[j])
        out.append(m[j] + c_m * acc)
    return out


def test_mean_update_matches_recombination_oracle() -> None:
    rng = np.random.default_rng(5150)
    for trial in range(150):
        variant = VARIANTS[trial % 3]
        n = int(rng.integers(1, 15))
        lam = int(rng.integers(2, 16))
        params, state = make_random_tell_inputs(rng, variant, n, lam)
        cands = ask(params, state, trial)
        for c in cands:
            c.fitness = float(rng.standard_normal())
        mode = "maximize" if trial % 2 else "minimize"
        expect = mean_oracle(state.m, params.c_m, params.weights,
                             selection_oracle(cands, params.mu, mode))
        new = tell(params, state, cands, mode)
        for a, b in zip(new.m, expect):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_tell_tie_break_prefers_lower_index() -> None:
    params, state = new_strategy(CSA, 2, 1.0, np.zeros(2), lam=4)
    cands = ask(params, state, 8)
    for c in cands:
        c.fitness = 1.0  # full tie: selection must be indexes 0..mu-1
    new = tell(params, state, cands)
    expect = mean_oracle(state.m, 1.0, params.weights, cands[:2])
    np.testing.assert_allclose(new.m, expect, rtol=0, atol=1e-15)


def test_tell_counts_generations_and_keeps_input_state() -> None:
    params, state = new_strategy(SEP_CMA, 4, 0.7, lam=6)
    before = copy.deepcopy(state)
    cands = ask(params, state, 1)
    for c in cands:
        c.fitness = float(np.sum(c.x))
    new = tell(params, state, cands)
    assert new.g == 1 and state.g == 0
    np.testing.assert_array_equal(state.m, before.m)
    np.testing.assert_array_equal(state.p_sigma, before.p_sigma)
    np.testing.assert_array_equal(state.c_diag, before.c_diag)
    assert state.sigma == before.sigma


def test_minimize_equals_maximize_of_negated() -> None:
    for variant in VARIANTS:
        params, s_min = new_strategy(variant, 5, 0.4, np.ones(5), lam=8)
        _, s_max = new_strategy(variant, 5, 0.4, np.ones(5), lam=8)
        f = sphere(5)
        for g in range(10):
            a = ask(params, s_min, 31)
            b = ask(params, s_max, 31)
            for ca, cb in zip(a, b):
                ca.fitness = f(ca.x)
                cb.fitness = -f(cb.x)
            s_min = tell(params, s_min, a, "minimize")
            s_max = tell(params, s_max, b, "maximize")
        np.testing.assert_array_equal(s_min.m, s_max.m)
        assert s_min.sigma == s_max.sigma


@pytest.mark.parametrize("variant", VARIANTS)
def test_distribution_stays_well_formed(variant) -> None:
    f = ellipsoid(6, 100.0)
    params, state = new_strategy(variant, 6, 1.5, np.full(6, 2.0), lam=8)
    for g in range(120):
        cands = ask(params, state, 77)
        for c in cands:
            c.fitness = f(c.x)
        state = tell(params, state, cands, "minimize")
        assert state.sigma > 0 and math.isfinite(state.sigma)
        assert np.all(np.isfinite(state.m))
        if variant == CSA:
            assert state.c_diag is None and state.c_full is None
        elif variant == SEP_CMA:
            assert np.all(state.c_diag > 0)
        else:
            c_mat = state.c_full
            assert np.max(np.abs(c_mat - c_mat.T)) < 1e-12
            assert np.all(np.linalg.eigvalsh(c_mat) > 0)
            assert np.all(state.eig_scale > 0)
    assert state.g == 120


def test_tell_validates_candidates() -> None:
    params, state = new_strategy(CSA, 3, 1.0, lam=4)
    cands = ask(params, state, 0)
    with pytest.raises(ValueError):
        tell(params, state, cands[:3])
    for c in cands:
        c.fitness = 0.0
    cands[2].fitness = float("nan")
    with pytest.raises(ValueError):
        tell(params, state, cands)
    cands[2].fitness = 0.0
    cands[2].index = 1
    with pytest.raises(ValueError):
        tell(params, state, cands)
    with pytest.raises(ValueError):
        tell(params, state, ask(params, state, 0), mode="sideways")


def test_tell_raises_on_step_size_overflow() -> None:
    params, state = new_strategy(CSA, 4, 1.0, lam=6)
    cands = ask(params, state, 0)
    for c in cands:
        c.fitness = 0.0
    state.p_sigma = np.full(4, 1e160)  # absurd path makes exp() overflow
    with pytest.raises(NumericalDegeneracyError) as err:
        tell(params, state, cands)
    assert err.value.generation == 1


def test_tell_raises_on_mean_overflow() -> None:
    # finite candidates whose recombination overflows: the mean would be
    # inf and the next ask would reject it
    params, state = new_strategy(CSA, 2, 1.0, m0=np.full(2, -1e308), lam=4)
    cands = [Candidate(i, np.zeros(2), np.full(2, 1e308), float(i)) for i in range(4)]
    with pytest.raises(NumericalDegeneracyError) as err, np.errstate(over="ignore"):
        tell(params, state, cands)
    assert err.value.generation == 1


def state_bytes(state) -> tuple:
    arrays = (state.m, state.p_sigma, state.p_c, state.c_diag, state.c_full,
              state.eig_basis, state.eig_scale)
    return (state.sigma, state.g, state.eig_age,
            *(None if a is None else a.tobytes() for a in arrays))


TIE_FITNESS = {
    "distinct": lambda rng, lam: rng.standard_normal(lam),
    "ties": lambda rng, lam: rng.integers(0, 3, lam).astype(float),
    "signed-zeros": lambda rng, lam: rng.choice([-0.0, 0.0, 1.0, -1.0], lam),
    "all-equal": lambda rng, lam: np.full(lam, -0.0),
}


@pytest.mark.parametrize("fitness", TIE_FITNESS)
@pytest.mark.parametrize("mode", ["maximize", "minimize"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_tell_arrays_equals_list_tell(variant, mode, fitness) -> None:
    rng = np.random.default_rng([VARIANTS.index(variant), len(mode), len(fitness)])
    for trial in range(12):
        params, state = make_random_tell_inputs(rng, variant, int(rng.integers(2, 9)),
                                                int(rng.integers(4, 13)))
        cands = ask(params, state, trial)
        for c, f in zip(cands, TIE_FITNESS[fitness](rng, params.lam)):
            c.fitness = float(f)
        want = state_bytes(tell(params, state, cands, mode))
        shuffled = [cands[k] for k in rng.permutation(params.lam)]
        assert state_bytes(tell(params, state, shuffled, mode)) == want
        new = tell_arrays(params, state, np.array([c.index for c in shuffled]),
                          np.stack([c.z for c in shuffled]), np.stack([c.x for c in shuffled]),
                          np.array([c.fitness for c in shuffled]), mode)
        assert state_bytes(new) == want
        # the mean recombines the mu best by (+-f, index), in that order
        best = selection_oracle(cands, params.mu, mode)
        m = state.m + params.c_m * (params.weights @ (np.stack([c.x for c in best]) - state.m))
        assert new.m.tobytes() == m.tobytes()


def test_sample_raises_on_overflowing_rows() -> None:
    params, state = new_strategy(SEP_CMA, 3, 1e308)
    state.g, state.c_diag = 5, np.full(3, 1e20)
    with pytest.raises(NumericalDegeneracyError) as err, np.errstate(over="ignore"):
        sample(params, state, 0, range(4))
    assert err.value.generation == 5


# ------------------------------------------------------------------- optimize

def test_optimize_ends_degenerate_when_diverging() -> None:
    # sigma grows until m + sigma * A z leaves float range
    with np.errstate(over="ignore", invalid="ignore"):
        res = optimize(lambda x: float(-x[0]), CSA, np.zeros(3), 1.0, budget_evals=10**6, seed=0)
    assert res.status == "degenerate"
    assert res.history and res.evals < 10**6
    # it ends in an ask (no evaluation) or in a tell (one unrecorded generation)
    assert res.evals - 1 - len(res.history) * cma_popsize(3) in (0, cma_popsize(3))
    assert res.best_f == -res.best_x[0] and np.isfinite(res.best_x).all()
    assert res.best_f <= min(r.best_f_gen for r in res.history)


@pytest.mark.parametrize("variant", VARIANTS)
def test_optimize_ends_degenerate_when_the_objective_overflows(variant) -> None:
    # -x.x is unbounded below: it reaches -inf before sigma leaves float range
    with np.errstate(over="ignore", invalid="ignore"):
        res = optimize(lambda x: -float(np.dot(x, x)), variant, np.ones(3), 1.0,
                       budget_evals=200_000, seed=0)
    assert res.status == "degenerate" and res.history and res.evals < 200_000
    # the generation that overflowed counts, unrecorded, as in the test above
    assert res.evals - 1 - len(res.history) * cma_popsize(3) in (0, cma_popsize(3))
    assert np.isfinite(res.best_f) and np.isfinite(res.best_x).all()
    assert res.best_f == -float(np.dot(res.best_x, res.best_x))
    assert res.best_f <= min(r.best_f_gen for r in res.history)


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_optimize_ends_degenerate_at_a_non_finite_start(start) -> None:
    # no finite point to start from, so none to report as the best
    def f(x):
        return start if (x == 1.0).all() else float(np.dot(x, x))

    res = optimize(f, CSA, np.ones(3), 1.0, budget_evals=700, seed=0)
    assert (res.status, res.evals, res.history) == ("degenerate", 1, [])
    assert res.best_x.tolist() == [1.0] * 3 and repr(res.best_f) == repr(start)


def test_optimize_descends_on_sphere() -> None:
    res = optimize(sphere(5), FULL_CMA, np.full(5, 3.0), 1.0, 6000,
                   target=1e-6, seed=3)
    assert res.status == "target_reached"
    assert res.best_f < 1e-6
    assert res.evals <= 6000
    evs = [r.evals for r in res.history]
    assert evs == sorted(evs)
    bests = [r.best_f for r in res.history]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_optimize_returns_immediately_at_optimum() -> None:
    res = optimize(sphere(3), CSA, np.zeros(3), 1.0, 100, target=1e-9, seed=0)
    assert res.status == "target_reached"
    assert res.evals == 1
    assert res.best_f == 0.0


def test_optimize_requires_budget_for_one_generation() -> None:
    with pytest.raises(ValueError):
        optimize(sphere(3), CSA, np.zeros(3), 1.0, 3, lam=8)


def test_optimize_budget_is_respected() -> None:
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return float(np.dot(x, x))

    res = optimize(counting, SEP_CMA, np.ones(4), 0.5, 100, seed=1, lam=8)
    assert res.status == "budget_exhausted"
    assert calls == res.evals <= 100


def test_sigma_has_no_systematic_drift_without_signal() -> None:
    # constant fitness: selection is pure noise, so log(sigma) random-walks
    # around 0; the band holds statistically, not for every excursion
    inside = 0
    total = 0
    final_drifts = []
    for seed in range(20):
        params, state = new_strategy(CSA, 10, 0.5, np.zeros(10), lam=10)
        for _ in range(50):
            cands = ask(params, state, seed)
            for c in cands:
                c.fitness = 7.25
            state = tell(params, state, cands)
            total += 1
            inside += abs(math.log(state.sigma / 0.5)) <= 1.0
        final_drifts.append(abs(math.log(state.sigma / 0.5)))
    assert inside / total >= 0.95
    assert sorted(final_drifts)[10] < 1.0


# --------------------------------------------------------------- equivariance

@pytest.mark.parametrize("variant", VARIANTS)
def test_translation_equivariance(variant) -> None:
    f = ellipsoid(6, 1e3)
    t = np.array([1.0, -2.0, 0.5, 3.0, -1.5, 2.0])
    params, s0 = new_strategy(variant, 6, 1.0, np.zeros(6), lam=9)
    _, s1 = new_strategy(variant, 6, 1.0, t.copy(), lam=9)
    for g in range(40):
        c0 = ask(params, s0, 123)
        c1 = ask(params, s1, 123)
        for a, b in zip(c0, c1):
            a.fitness = f(a.x)
            b.fitness = f(b.x - t)
        rank0 = [c.index for c in selection_oracle(c0, params.mu, "minimize")]
        rank1 = [c.index for c in selection_oracle(c1, params.mu, "minimize")]
        assert rank0 == rank1
        s0 = tell(params, s0, c0, "minimize")
        s1 = tell(params, s1, c1, "minimize")
        assert s1.sigma == s0.sigma
        np.testing.assert_array_equal(s1.p_sigma, s0.p_sigma)
        np.testing.assert_array_equal(s1.p_c, s0.p_c)
        if variant == SEP_CMA:
            np.testing.assert_array_equal(s1.c_diag, s0.c_diag)
        if variant == FULL_CMA:
            np.testing.assert_array_equal(s1.c_full, s0.c_full)
        assert np.max(np.abs((s1.m - t) - s0.m)) <= 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
def test_scale_equivariance(variant) -> None:
    f = ellipsoid(6, 1e3)
    for scale in (2.0, 3.0):
        params, s0 = new_strategy(variant, 6, 1.0, np.ones(6), lam=9)
        _, s1 = new_strategy(variant, 6, scale, scale * np.ones(6), lam=9)
        for g in range(40):
            c0 = ask(params, s0, 9)
            c1 = ask(params, s1, 9)
            for a, b in zip(c0, c1):
                a.fitness = f(a.x)
                b.fitness = f(b.x / scale)
            s0 = tell(params, s0, c0, "minimize")
            s1 = tell(params, s1, c1, "minimize")
            if scale == 2.0:
                # powers of two rescale mantissas exactly
                np.testing.assert_array_equal(s1.m, scale * s0.m)
                assert s1.sigma == scale * s0.sigma
            else:
                assert abs(s1.sigma - scale * s0.sigma) <= 1e-10 * scale * s0.sigma
                np.testing.assert_allclose(s1.m, scale * s0.m, rtol=1e-10, atol=1e-300)
