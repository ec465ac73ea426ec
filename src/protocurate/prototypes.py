"""Evolving prototype bank: k-means warm-up, Sinkhorn assignment, EMA updates.

The bank holds K centroid vectors in the unified embedding space.  They are
seeded by Lloyd's k-means on a warm-up sample, then tracked online: each
curated mini-batch is transported onto the prototypes under an equipartition
constraint (every prototype receives mass 1/K), the plan's columns give
proximity weights for a fresh centroid estimate, and the bank blends that
estimate in with an exponential moving average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import pairwise_sq_distance
from .errors import FormatError, InsufficientWarmupError, UsageError
from .io import decode_records, encode_records

PROTO_MAGIC = b"XFICPRO1"


@dataclass
class TransportPlan:
    """Entropic transport plan between samples (rows) and prototypes (columns).

    ``residual`` is the achieved max marginal error; ``converged`` records
    whether it dropped below the requested tolerance within the iteration
    budget.  Callers decide what a non-converged plan means.
    """

    plan: np.ndarray
    residual: float
    converged: bool
    iterations: int

    def hard_assignment(self) -> np.ndarray:
        """Unique cluster per row: argmax of plan mass, ties to smallest column."""
        return np.argmax(self.plan, axis=1)


@dataclass
class PrototypeBank:
    protos: np.ndarray
    ema_alpha: float
    update_count: int = 0

    def __post_init__(self) -> None:
        self.protos = np.ascontiguousarray(self.protos, dtype=np.float64)
        if self.protos.ndim != 2:
            raise UsageError("prototypes must form a (K, dim) matrix")
        if not np.all(np.isfinite(self.protos)):
            raise UsageError("prototype vectors must be finite")
        if not (0.0 <= self.ema_alpha <= 1.0):
            raise UsageError("ema_alpha must be in [0, 1]")

    @property
    def k(self) -> int:
        return self.protos.shape[0]

    @property
    def dim(self) -> int:
        return self.protos.shape[1]


def init_kmeans(
    samples: np.ndarray, k: int, max_iters: int, seed: int, ema_alpha: float
) -> PrototypeBank:
    """Lloyd's k-means from K distinct seeded starting samples.

    Stops when assignments stabilize or after max_iters sweeps.  A cluster
    that loses all members is re-seeded to the sample farthest from every
    current centroid (ties to smallest row index), so K centroids always
    survive.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise UsageError("warm-up samples must form a (n, dim) matrix")
    n = samples.shape[0]
    if k < 1:
        raise UsageError("K must be >= 1")
    if n < k:
        raise InsufficientWarmupError(
            f"k-means warm-up needs at least K={k} samples, got {n}"
        )

    rng = np.random.default_rng(seed)
    centers = samples[rng.choice(n, size=k, replace=False)].copy()

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        sq = pairwise_sq_distance(samples, centers)
        new_assign = np.argmin(sq, axis=1)

        # Re-seed empty clusters from the globally farthest unassigned sample.
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            nearest_sq = sq[np.arange(n), new_assign].copy()
            for empty in np.flatnonzero(counts == 0):
                far = int(np.argmax(nearest_sq))
                centers[empty] = samples[far]
                new_assign[far] = empty
                nearest_sq[far] = -np.inf  # not eligible to re-seed twice
            sq = pairwise_sq_distance(samples, centers)
            new_assign = np.argmin(sq, axis=1)

        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = samples[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)

    return PrototypeBank(protos=centers, ema_alpha=ema_alpha)


def sinkhorn_plan(
    embeddings: np.ndarray,
    bank: PrototypeBank,
    epsilon: float,
    max_iters: int,
    tol: float,
) -> TransportPlan:
    """Equipartition transport of n samples onto K prototypes.

    Cost is squared Euclidean distance; marginals are uniform (rows 1/n,
    columns 1/K).  Solved by ``sinkhorn_from_cost``, whose stabilised
    scaling iterations do not underflow at tiny epsilon.  Never raises on
    non-convergence; the plan carries a converged flag and the achieved
    residual.
    """
    cost = pairwise_sq_distance(np.asarray(embeddings, dtype=np.float64), bank.protos)
    return sinkhorn_from_cost(cost, epsilon=epsilon, max_iters=max_iters, tol=tol)


# Scalings outside [_SCALING_MIN, _SCALING_MAX] are absorbed into the potentials.
_SCALING_MIN, _SCALING_MAX = 1e-100, 1e100
# Sweeps run in blocks of 1, 2, 4, ... sweeps, up to _BLOCK_SWEEPS and to
# _BLOCK_ENTRIES floats per history buffer: a solve that stops early runs few
# sweeps past its stop, and a large pool keeps its buffers small.
_BLOCK_SWEEPS, _BLOCK_ENTRIES = 64, 2**15


def sinkhorn_from_cost(
    cost: np.ndarray, epsilon: float, max_iters: int, tol: float
) -> TransportPlan:
    """Sinkhorn on an explicit cost matrix (uniform marginals 1/n and 1/K).

    Stabilised scaling iterations (Schmitzer 2019): the plan is
    ``u_i K_ij v_j`` with ``K = exp(-(cost - f_i - g_j) / epsilon)``.  The
    potentials start at the row minima ``f`` and their c-transform ``g``, so
    every kernel entry is <= 1 and every row and column holds a 1: nothing
    underflows to an all-zero row or column.  Each sweep is ``u = r / (K v)``,
    ``v = c / (K^T u)``; whenever a scaling leaves [1e-100, 1e100] it is
    absorbed into the potentials (``f += eps log u``, ``g += eps log v``) and
    the kernel is rebuilt.

    Sweeps run in blocks, each into its own row of a history, and a block is
    checked once, with a few reductions over all its rows.  The first sweep
    that converged or left the range is taken up as if it had been checked
    alone: the solve stops there, or absorbs its scalings and starts the next
    block from them.  The later sweeps of that block are dropped, so every
    iterate, count and plan is the one-sweep loop's.
    """
    if epsilon <= 0.0:
        raise UsageError("epsilon must be > 0")
    if max_iters < 1:
        raise UsageError("max_iters must be >= 1")
    cost = np.asarray(cost, dtype=np.float64)
    n, k = cost.shape
    if n < 1 or k < 1:
        raise UsageError("cost matrix must be nonempty")

    r = 1.0 / n  # target row sum
    c = 1.0 / k  # target column sum
    # Row minima and their c-transform, one cost column at a time: numpy
    # reduces along K-long rows one row at a time, which took 0.87 ms at
    # n = 5472, longer than that solve's sweeps.  A minimum is exact in any
    # order, and a zero's sign cannot reach the kernel.
    columns = cost.T
    f = columns[0].copy()
    for column in columns[1:]:
        np.minimum(f, column, out=f)
    g = np.array([(column - f).min() for column in columns])

    # The kernel is held as (K, n): both matrix-vector products then run over
    # K long contiguous rows, which is faster than n rows of length K.
    def kernel() -> np.ndarray:
        return np.exp((g[:, None] + f[None, :] - cost.T) / epsilon)

    cap = max(1, min(_BLOCK_SWEEPS, _BLOCK_ENTRIES // (n + k)))
    # Row j of ``scalings`` is sweep j's u then v, so one min and one max check
    # both.  Sweep j divides by row j of ``kvs`` and writes K v to row j + 1.
    scalings = np.empty((cap, n + k))
    kvs = np.empty((cap + 1, n))
    kt_u = np.empty(k)
    sweeps: list[tuple] = []  # sweep j's views: u, v, the K v it reads, the one it writes
    ones = np.ones(n + k)
    u, v = ones[:n], ones[n:]
    kern = kernel()
    v.dot(kern, kvs[0])
    converged = False
    iterations = 0
    size = 1
    while iterations < max_iters:
        m = min(size, max_iters - iterations)
        size = min(2 * size, cap)
        if m > len(sweeps):
            j = len(sweeps)
            sweeps += zip(scalings[j:m, :n], scalings[j:m, n:], kvs[j:m], kvs[j + 1 : m + 1])
        for u_j, v_j, kv_j, kv_next in sweeps[:m]:
            np.divide(r, kv_j, u_j)
            kern.dot(u_j, kt_u)
            np.divide(c, kt_u, v_j)
            v_j.dot(kern, kv_next)
        # The next block starts from the last K v.  Column sums are exact
        # after each sweep, so its row sums u K v are its residual; they
        # overwrite the K v rows, which no later sweep reads.
        kvs[0] = kvs[m]
        rows = np.multiply(kvs[1 : m + 1], scalings[:m, :n], out=kvs[1 : m + 1])
        done = (rows.max(axis=1) - r < tol) & (r - rows.min(axis=1) < tol)
        escaped = (scalings[:m].min(axis=1) < _SCALING_MIN) | (
            scalings[:m].max(axis=1) > _SCALING_MAX
        )
        stops = np.flatnonzero(done | escaped)
        if not len(stops):
            iterations += m
            u, v = sweeps[m - 1][:2]
            continue
        t = int(stops[0])
        iterations += t + 1
        u, v = sweeps[t][:2]
        if done[t]:
            converged = True
            break
        f += epsilon * np.log(u)
        g += epsilon * np.log(v)
        kern = kernel()
        u, v = ones[:n], ones[n:]
        v.dot(kern, kvs[0])
    # Free the history, views and all, before the plan is built.
    u, v = u.copy(), v.copy()
    del scalings, kvs, rows, sweeps, u_j, v_j, kv_j, kv_next

    plan = u[:, None] * kern.T * v[None, :]
    row_err = np.max(np.abs(plan.sum(axis=1) - r))
    col_err = np.max(np.abs(plan.sum(axis=0) - c))
    residual = float(max(row_err, col_err))
    return TransportPlan(
        plan=plan,
        residual=residual,
        converged=converged and residual < tol,
        iterations=iterations,
    )


def update_prototypes(
    plan: TransportPlan, embeddings: np.ndarray, bank: PrototypeBank
) -> list[int]:
    """EMA-blend each prototype toward its plan-weighted embedding average.

    Candidate p_hat_k is the column-k-normalized weighted mean of the
    embeddings; p_k <- (1-alpha) p_k + alpha p_hat_k.  A column carrying no
    mass leaves its prototype untouched; the list of skipped indices is
    returned.  Mutates the bank in place.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    p = np.asarray(plan.plan, dtype=np.float64)
    if p.shape != (z.shape[0], bank.k):
        raise UsageError(
            f"plan shape {p.shape} does not match {z.shape[0]} samples x K={bank.k}"
        )

    mass = p.sum(axis=0)
    skipped: list[int] = []
    alpha = bank.ema_alpha
    for j in range(bank.k):
        if mass[j] <= 0.0:
            skipped.append(j)
            continue
        candidate = (p[:, j] @ z) / mass[j]
        bank.protos[j] = (1.0 - alpha) * bank.protos[j] + alpha * candidate
    bank.update_count += 1
    return skipped


def _bank_layout(k: int, dim: int) -> tuple[int, list]:
    return 1, [("protos", "<f8", (k, dim)), ("ema_alpha", "<f8", ()), ("update_count", "<u8", ())]


def encode_bank(bank: PrototypeBank) -> bytearray:
    values = dict(protos=bank.protos, ema_alpha=bank.ema_alpha, update_count=bank.update_count)
    return encode_records(PROTO_MAGIC, (bank.k, bank.dim), _bank_layout, values)


def decode_bank(data: bytes) -> PrototypeBank:
    _, (rec,) = decode_records(data, PROTO_MAGIC, ("K", "dim"), _bank_layout)
    try:
        return PrototypeBank(
            protos=rec["protos"].copy(),
            ema_alpha=float(rec["ema_alpha"]),
            update_count=int(rec["update_count"]),
        )
    except UsageError as exc:
        raise FormatError(f"invalid prototype checkpoint: {exc}") from None
