"""Prototype bank: k-means warm-up, Sinkhorn transport, EMA updates."""

import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import load_bank, logsumexp, nearest_prototype, sinkhorn_from_cost_direct
from protocurate import prototypes
from protocurate.curation import score_superbatch
from protocurate.errors import FormatError, InsufficientWarmupError, UsageError
from protocurate.io import commit_outputs
from protocurate.prototypes import (
    PrototypeBank,
    TransportPlan,
    decode_bank,
    encode_bank,
    init_kmeans,
    sinkhorn_from_cost,
    sinkhorn_plan,
    update_prototypes,
)


def brute_force_best_2partition_sse(points):
    """Minimum within-cluster SSE over all 2-partitions (oracle, n <= 12)."""
    n = len(points)
    best = np.inf
    for mask_bits in range(1, 2 ** (n - 1)):  # fix point 0 in group A
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        a, b = points[~mask], points[mask]
        if len(a) == 0 or len(b) == 0:
            continue
        sse = ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
        best = min(best, sse)
    return best


def _log_domain_sinkhorn(cost, epsilon, max_iters, tol):
    """Log-domain Sinkhorn oracle: (plan, converged), residual checked every sweep."""
    n, k = cost.shape
    log_kernel = -cost / epsilon
    g = np.zeros(k)
    for _ in range(max_iters):
        f = -np.log(n) - logsumexp(log_kernel + g[None, :], axis=1)
        g = -np.log(k) - logsumexp(log_kernel + f[:, None], axis=0)
        plan = np.exp(log_kernel + f[:, None] + g[None, :])
        row_err = np.max(np.abs(plan.sum(axis=1) - 1.0 / n))
        col_err = np.max(np.abs(plan.sum(axis=0) - 1.0 / k))
        if max(row_err, col_err) < tol:
            return plan, True
    return plan, False


def kmeans_sse(points, centers):
    d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d.min(axis=1).sum()


class TestInitKmeans:
    def test_duplicated_locations_recovered(self):
        rng = np.random.default_rng(0)
        locations = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.repeat(locations, 5, axis=0)
        for seed in range(8):
            order = rng.permutation(len(points))
            bank = init_kmeans(points[order], 3, max_iters=100, seed=seed, ema_alpha=0.1)
            got = sorted(map(tuple, bank.protos.round(9)))
            want = sorted(map(tuple, locations))
            assert got == want

    def test_k1_gives_mean(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((20, 3))
        bank = init_kmeans(points, 1, max_iters=100, seed=0, ema_alpha=0.1)
        np.testing.assert_allclose(bank.protos[0], points.mean(axis=0), atol=1e-12)

    def test_two_blobs_match_exhaustive_partition(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            a = rng.standard_normal((6, 2)) * 0.3 + [5.0, 0.0]
            b = rng.standard_normal((6, 2)) * 0.3 - [5.0, 0.0]
            points = np.vstack([a, b])
            bank = init_kmeans(points, 2, max_iters=100, seed=trial, ema_alpha=0.1)
            got = kmeans_sse(points, bank.protos)
            want = brute_force_best_2partition_sse(points)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientWarmupError):
            init_kmeans(np.zeros((3, 2)), 4, max_iters=100, seed=0, ema_alpha=0.1)

    def test_warmup_flag_set(self):
        points = np.random.default_rng(0).standard_normal((10, 2))
        bank = init_kmeans(points, 2, max_iters=100, seed=0, ema_alpha=0.1)
        assert bank.update_count == 0


class TestSinkhorn:
    def test_equal_costs_give_uniform_plan(self):
        cost = np.full((4, 3), 2.5)
        plan = sinkhorn_from_cost(cost, epsilon=0.05, max_iters=50000, tol=1e-10)
        assert plan.converged
        np.testing.assert_allclose(plan.plan, 1.0 / 12.0, atol=1e-12)

    def test_tiny_lp_vertex(self):
        # antisymmetric 2x2 cost: the LP optimum puts all mass on the diagonal
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn_from_cost(cost, epsilon=1e-3, max_iters=100000, tol=1e-10)
        assert plan.converged
        np.testing.assert_allclose(
            plan.plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-3
        )

    def test_marginals_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            k = int(rng.integers(1, 9))
            cost = rng.random((n, k)) * rng.choice([0.1, 1.0, 10.0])
            plan = sinkhorn_from_cost(cost, epsilon=0.05, max_iters=50000, tol=1e-6)
            assert plan.converged, (n, k)
            p = plan.plan
            assert np.all(p >= 0.0)
            assert np.max(np.abs(p.sum(axis=1) - 1.0 / n)) < 1e-6
            assert np.max(np.abs(p.sum(axis=0) - 1.0 / k)) < 1e-6

    def test_large_epsilon_approaches_uniform(self):
        rng = np.random.default_rng(4)
        cost = rng.random((12, 5))
        plan = sinkhorn_from_cost(cost, epsilon=1e3, max_iters=50000, tol=1e-10)
        assert np.max(np.abs(plan.plan - 1.0 / 60.0)) < 1e-3

    def test_underflow_regime_stays_finite(self):
        # costs>>epsilon underflow exp(-C/eps) in linear space; the log-domain
        # iteration must still converge to clean marginals
        cost = np.array([[0.0, 8.0, 5.0], [7.0, 0.5, 6.0], [4.0, 9.0, 0.1]])
        plan = sinkhorn_from_cost(cost, epsilon=1e-3, max_iters=100000, tol=1e-8)
        assert plan.converged
        assert np.all(np.isfinite(plan.plan))

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(5)
        cost = rng.random((32, 4))
        plan = sinkhorn_from_cost(cost, epsilon=1e-3, max_iters=2, tol=1e-12)
        assert not plan.converged
        assert plan.iterations == 2
        assert plan.residual > 0

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 1.0, 1e3])
    def test_matches_log_domain_oracle(self, epsilon):
        # Wherever both solvers converge the plans agree.  At epsilon 1e-3
        # the scalings leave [1e-100, 1e100] and are absorbed on the way.
        rng = np.random.default_rng(13)
        compared = 0
        for _ in range(200):
            n = int(rng.integers(1, 65))
            k = int(rng.integers(1, 9))
            cost = rng.random((n, k)) * rng.choice([0.1, 1.0, 10.0])
            plan = sinkhorn_from_cost(cost, epsilon=epsilon, max_iters=2000, tol=1e-6)
            assert np.all(np.isfinite(plan.plan))
            if not plan.converged:
                continue
            want, converged = _log_domain_sinkhorn(cost, epsilon, max_iters=2000, tol=1e-6)
            if converged:
                compared += 1
                assert np.max(np.abs(plan.plan - want)) < 1e-6, (n, k)
        assert compared >= 100

    def test_absorbed_scalings_still_converge(self):
        # Every row sits near column 0 and 5 away from the others; moving
        # mass to those at epsilon 1e-3 drives the scalings past 1e100, so
        # they must be absorbed into the potentials on the way.
        rng = np.random.default_rng(17)
        cost = rng.random((16, 3))
        cost[:, 1:] += 5.0
        plan = sinkhorn_from_cost(cost, epsilon=1e-3, max_iters=20000, tol=1e-8)
        want, converged = _log_domain_sinkhorn(cost, 1e-3, max_iters=20000, tol=1e-8)
        assert plan.converged and converged
        assert np.max(np.abs(plan.plan - want)) < 1e-6

    def test_plan_from_bank_embeddings(self):
        rng = np.random.default_rng(6)
        bank = init_kmeans(rng.standard_normal((30, 4)), 3, max_iters=100, seed=0, ema_alpha=0.1)
        z = rng.standard_normal((10, 4))
        plan = sinkhorn_plan(z, bank, epsilon=0.5, max_iters=50000, tol=1e-6)
        assert plan.plan.shape == (10, 3)
        assert plan.converged

    def test_invalid_epsilon(self):
        with pytest.raises(UsageError):
            sinkhorn_from_cost(np.ones((2, 2)), epsilon=0.0, max_iters=50000, tol=1e-6)

    def test_hard_assignment_tie_smallest_column(self):
        plan = TransportPlan(
            plan=np.array([[0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]),
            residual=0.0,
            converged=True,
            iterations=1,
        )
        np.testing.assert_array_equal(plan.hard_assignment(), [2, 0])


def assert_same_solve(cost, epsilon, max_iters, tol):
    """The blocked solver returns the one-sweep loop's plan bytes, sweep count,
    residual and flag; returns the plan."""
    plan = sinkhorn_from_cost(cost, epsilon=epsilon, max_iters=max_iters, tol=tol)
    want = sinkhorn_from_cost_direct(cost, epsilon=epsilon, max_iters=max_iters, tol=tol)
    assert type(plan.iterations) is int
    assert plan.plan.tobytes() == want.plan.tobytes()
    assert (plan.iterations, plan.residual, plan.converged) == (
        want.iterations,
        want.residual,
        want.converged,
    )
    return plan


class TestBlockedSweeps:
    """Sweeps run in checked blocks; every solve must be the one-sweep loop's."""

    CAP = prototypes._BLOCK_SWEEPS

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 1.0, 1e3])
    def test_bytes_of_the_one_sweep_loop(self, epsilon, monkeypatch):
        rng = np.random.default_rng(21)
        # Count absorptions: the solver takes a log only to absorb scalings.
        logs = []
        log = np.log
        monkeypatch.setattr(prototypes.np, "log", lambda x: logs.append(1) or log(x))
        sweeps = 0
        for _ in range(60):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(1, 9))
            cost = rng.random((n, k)) * rng.choice([0.1, 1.0, 10.0])
            sweeps += assert_same_solve(cost, epsilon, max_iters=2000, tol=1e-6).iterations
        monkeypatch.undo()
        # At epsilon 1e-3 the scalings leave [1e-100, 1e100] mid-solve and are
        # absorbed; the solve then restarts its block from the new kernel.
        assert (len(logs) > 0) == (epsilon == 1e-3)
        # The small epsilons take many sweeps, so they run full blocks.
        assert sweeps > 60 * self.CAP or epsilon > 0.05

    @pytest.mark.parametrize("offset", [1, 2, 3, CAP - 1, CAP, CAP + 1, 2 * CAP + 1])
    def test_max_iters_ends_a_block(self, offset):
        # The budget cuts a block short: the count is max_iters and the plan
        # is built from the last sweep run, converged or not.
        rng = np.random.default_rng(22)
        converged = set()
        for epsilon in (1e-3, 0.05, 0.5):
            cost = rng.random((40, 5))
            for max_iters in {offset, offset + 7, offset + 2 * self.CAP}:
                plan = assert_same_solve(cost, epsilon, max_iters, tol=1e-6)
                assert plan.iterations <= max_iters
                converged.add(plan.converged)
        assert converged == {True, False} or offset > self.CAP

    def test_stop_at_every_position_of_a_block(self):
        # A solve that converges after T sweeps, cut at every budget around T.
        cost = np.random.default_rng(23).random((30, 4))
        full = assert_same_solve(cost, 0.01, max_iters=50000, tol=1e-9)
        assert full.converged and full.iterations > 2 * self.CAP
        for max_iters in range(full.iterations - self.CAP - 1, full.iterations + 3):
            plan = assert_same_solve(cost, 0.01, max_iters, tol=1e-9)
            assert plan.converged == (max_iters >= full.iterations)

    def test_absorption_at_every_position_of_a_block(self):
        # The one-sweep loop absorbs this solve's scalings after sweeps 137
        # and 648, both inside a block; a budget that ends on the absorbing
        # sweep returns the rebuilt kernel's plan at unit scalings.
        rng = np.random.default_rng(17)
        cost = rng.random((16, 3))
        cost[:, 1:] += 5.0
        for max_iters in [*range(130, 145), *range(645, 652), 20000]:
            assert_same_solve(cost, 1e-3, max_iters, tol=1e-8)

    def test_tied_costs_and_signed_zeros(self):
        # The potentials start from row minima taken one column at a time;
        # with ties and zeros of both signs the plans must still match.
        rng = np.random.default_rng(27)
        for _ in range(100):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 7))
            cost = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(n, k))
            for epsilon in (1e-3, 0.05, 1.0):
                assert_same_solve(cost, epsilon, max_iters=300, tol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (1, 300)])
    def test_single_row_or_column(self, shape):
        cost = np.random.default_rng(24).random(shape)
        for epsilon in (1e-3, 0.05, 1.0):
            plan = assert_same_solve(cost, epsilon, max_iters=500, tol=1e-8)
            assert plan.converged

    def test_rows_past_the_history_bound_run_one_sweep_a_block(self):
        # One history row holds more than _BLOCK_ENTRIES floats, so every
        # block is a single sweep.
        n, k = prototypes._BLOCK_ENTRIES + 1, 3
        cost = np.random.default_rng(25).random((n, k))
        for max_iters in (1, 2, 5):
            assert_same_solve(cost, 0.05, max_iters, tol=1e-6)
        assert assert_same_solve(cost, 1.0, max_iters=200, tol=1e-6).converged

    def test_traced_peak_stays_small(self):
        # A 6400-row pool: the history is capped at _BLOCK_ENTRIES floats per
        # buffer, so the solve's buffers stay within a few copies of the cost.
        # The one-sweep loop traces 1.08 MB here, and 64-row buffers without
        # the cap 9.9 MB.
        cost = np.random.default_rng(26).random((6400, 6)) * 2.0
        tracemalloc.start()
        try:
            plan = sinkhorn_from_cost(cost, epsilon=0.05, max_iters=50000, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.converged
        assert peak < 2 * 1024 * 1024


class TestUpdatePrototypes:
    def _bank(self, protos, alpha):
        return PrototypeBank(protos=np.asarray(protos, float), ema_alpha=alpha)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(7)
        bank = self._bank(rng.standard_normal((3, 2)), 0.0)
        before = bank.protos.copy()
        z = rng.standard_normal((6, 2))
        plan = sinkhorn_plan(z, bank, epsilon=1.0, max_iters=50000, tol=1e-6)
        update_prototypes(plan, z, bank)
        np.testing.assert_array_equal(bank.protos, before)
        assert bank.update_count == 1

    def test_alpha_one_full_replacement_uniform_plan_gives_mean(self):
        z = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        bank = self._bank([[5.0, 5.0], [-5.0, -5.0]], 1.0)
        plan = TransportPlan(np.full((4, 2), 1.0 / 8.0), 0.0, True, 1)
        update_prototypes(plan, z, bank)
        np.testing.assert_allclose(bank.protos[0], z.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(bank.protos[1], z.mean(axis=0), atol=1e-12)

    def test_ema_is_exact_affine_blend(self):
        rng = np.random.default_rng(8)
        alpha = 0.1
        bank = self._bank(rng.standard_normal((4, 3)), alpha)
        before = bank.protos.copy()
        z = rng.standard_normal((20, 3))
        plan = sinkhorn_plan(z, bank, epsilon=0.5, max_iters=50000, tol=1e-6)
        candidates = (plan.plan / plan.plan.sum(axis=0)[None, :]).T @ z
        update_prototypes(plan, z, bank)
        np.testing.assert_allclose(
            bank.protos, (1 - alpha) * before + alpha * candidates, atol=1e-12
        )

    def test_zero_mass_column_skipped(self):
        bank = self._bank([[0.0, 0.0], [9.0, 9.0]], 0.5)
        before = bank.protos.copy()
        plan = TransportPlan(
            plan=np.array([[0.5, 0.0], [0.5, 0.0]]), residual=0.0, converged=True, iterations=1
        )
        z = np.array([[1.0, 1.0], [3.0, 3.0]])
        skipped = update_prototypes(plan, z, bank)
        assert skipped == [1]
        np.testing.assert_array_equal(bank.protos[1], before[1])
        np.testing.assert_allclose(bank.protos[0], [1.0, 1.0])  # 0.5*0 + 0.5*2

    def test_update_count_monotone(self):
        rng = np.random.default_rng(9)
        bank = self._bank(rng.standard_normal((2, 2)), 0.2)
        z = rng.standard_normal((5, 2))
        for expected in (1, 2, 3):
            plan = sinkhorn_plan(z, bank, epsilon=1.0, max_iters=50000, tol=1e-6)
            update_prototypes(plan, z, bank)
            assert bank.update_count == expected

    def test_shape_mismatch(self):
        bank = self._bank(np.zeros((2, 2)), 0.5)
        plan = TransportPlan(np.full((3, 2), 1 / 6), 0.0, True, 1)
        with pytest.raises(UsageError):
            update_prototypes(plan, np.zeros((4, 2)), bank)


class TestNearestPrototype:
    def test_exact_match(self):
        bank = PrototypeBank(protos=np.eye(4), ema_alpha=0.1)
        idx, d = nearest_prototype(np.eye(4)[3], bank)
        assert idx == 3
        assert d == 0.0

    def test_equidistant_tie_smallest_index(self):
        protos = np.array([[9.0, 9.0], [1.0, 0.0], [9.0, -9.0], [8.0, 8.0], [-1.0, 0.0]])
        bank = PrototypeBank(protos=protos, ema_alpha=0.1)
        idx, d = nearest_prototype(np.array([0.0, 0.0]), bank)
        assert idx == 1
        assert d == 1.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(10)
        bank = PrototypeBank(protos=rng.standard_normal((6, 5)), ema_alpha=0.1)
        for _ in range(50):
            z = rng.standard_normal(5)
            idx, d = nearest_prototype(z, bank)
            dists = [np.linalg.norm(z - p) for p in bank.protos]
            assert idx == int(np.argmin(dists))
            np.testing.assert_allclose(d, min(dists), atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        bank = PrototypeBank(protos=rng.standard_normal((4, 3)), ema_alpha=0.1)
        z = rng.standard_normal((25, 3))
        idx, d = score_superbatch(z, bank)
        for i in range(len(z)):
            si, sd = nearest_prototype(z[i], bank)
            assert idx[i] == si
            np.testing.assert_allclose(d[i], sd, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(12)
        bank = PrototypeBank(
            protos=rng.standard_normal((6, 10)),
            ema_alpha=0.1,
            update_count=17,
        )
        data = encode_bank(bank)
        back = decode_bank(data)
        assert np.array_equal(back.protos, bank.protos)
        assert back.ema_alpha == bank.ema_alpha
        assert back.update_count == 17
        assert encode_bank(back) == data

        commit_outputs([(tmp_path / "p.bin", data)])
        assert np.array_equal(load_bank(tmp_path / "p.bin").protos, bank.protos)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            decode_bank(b"WRONGMAG" + b"\x00" * 24)

    def test_truncation(self):
        bank = PrototypeBank(protos=np.zeros((2, 2)), ema_alpha=0.1)
        with pytest.raises(FormatError):
            decode_bank(encode_bank(bank)[:-3])
