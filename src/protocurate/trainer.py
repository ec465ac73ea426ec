"""Toy contrastive trainer: linear projection heads + learnable temperature.

Trains two linear maps (image side, text side) into a shared space with the
symmetric InfoNCE objective, hand-rolled AdamW, and epoch-granular cosine
annealing.  Gradients are analytic, composed through projection and row
normalization; a finite-difference oracle in the tests pins them down.

The parameters and their gradient are records of the head checkpoint's
dtype (``_head_layout``, the only statement of their order and shapes).
AdamW updates every entry independently, so it steps one flat vector.

The joint mode couples this trainer to the curation loop: curation epoch
first (one optimizer step per curated mini-batch, embeddings recomputed
through the evolving head), then the remaining epochs re-iterate the
curated selection.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import EngineConfig
from .curation import CuratedSelection, run_curation
from .embedding import check_directions, unify_batch
from .errors import DegenerateVectorError, FormatError, NumericalFailureError, UsageError
from .io import Corpus, decode_records, encode_records, input_file
from .prototypes import PrototypeBank

HEAD_MAGIC = b"XFICHEAD"
LOG_TAU_MIN = math.log(1e-3)
LOG_TAU_MAX = math.log(0.5)
PARAM_NAMES = ("W_img", "b_img", "W_txt", "b_txt", "log_tau")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _head_layout(d_img: int, d_txt: int, d_shared: int) -> tuple[int, list]:
    """The head checkpoint's one record: every parameter, in PARAM_NAMES order."""
    shapes = ((d_img, d_shared), (d_shared,), (d_txt, d_shared), (d_shared,), ())
    return 1, [(name, "<f8", shape) for name, shape in zip(PARAM_NAMES, shapes)]


def _flat(record: np.ndarray) -> np.ndarray:
    """A parameter record's memory as one float64 vector, in PARAM_NAMES order."""
    return record.reshape(1).view(np.float64)


def _param(name: str) -> property:
    return property(lambda self: self.record[name], doc=f"{name}: a view of ``record``.")


class ProjectionHead:
    """Linear image and text projections plus a log temperature, held in one
    ``record``: each parameter reads its field, ``theta`` its memory as one
    float64 vector.  Nothing else is stored, so a ``copy.deepcopy`` stays whole.
    """

    W_img = _param("W_img")
    b_img = _param("b_img")
    W_txt = _param("W_txt")
    b_txt = _param("b_txt")

    def __init__(self, W_img, b_img, W_txt, b_txt, log_tau: float) -> None:
        values = dict(zip(PARAM_NAMES, (W_img, b_img, W_txt, b_txt, log_tau)))
        for name in ("W_img", "W_txt"):
            if np.ndim(values[name]) != 2:
                raise UsageError(f"{name} has shape {np.shape(values[name])}, expected 2-D")
        (d_img, d_shared), (d_txt, _) = np.shape(W_img), np.shape(W_txt)
        _, layout = _head_layout(d_img, d_txt, d_shared)
        self.record = np.zeros((), dtype=layout)
        for name, _, shape in layout:
            value = np.asarray(values[name], dtype=np.float64)
            if value.shape != shape:
                raise UsageError(f"{name} has shape {value.shape}, expected {shape}")
            self.record[name] = value

    @property
    def log_tau(self) -> float:
        return float(self.record["log_tau"])

    @log_tau.setter
    def log_tau(self, value: float) -> None:
        self.record["log_tau"] = value

    @property
    def theta(self) -> np.ndarray:
        return _flat(self.record)

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    @property
    def d_shared(self) -> int:
        return self.W_img.shape[1]

    def project_img(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.W_img + self.b_img

    def project_txt(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.W_txt + self.b_txt

    def unified(self, img: np.ndarray, txt: np.ndarray, space: str) -> np.ndarray:
        """Curation-space embedding through the head: normalized projected halves."""
        return unify_batch(self.project_img(img), self.project_txt(txt), space)


def init_head(
    d_img: int, d_txt: int, d_shared: int, tau_init: float, seed: int
) -> ProjectionHead:
    """Seeded Gaussian init scaled by 1/sqrt(fan_in); biases zero."""
    if not (0.0 < tau_init):
        raise UsageError("tau_init must be > 0")
    rng = np.random.default_rng(seed)
    return ProjectionHead(
        W_img=rng.standard_normal((d_img, d_shared)) / math.sqrt(d_img),
        b_img=np.zeros(d_shared),
        W_txt=rng.standard_normal((d_txt, d_shared)) / math.sqrt(d_txt),
        b_txt=np.zeros(d_shared),
        log_tau=math.log(tau_init),
    )


def identity_head(dim: int) -> ProjectionHead:
    """Pass-through head (square identity maps, tau 1); used by eval when none is trained."""
    eye, zero = np.eye(dim), np.zeros(dim)
    return ProjectionHead(W_img=eye, b_img=zero, W_txt=eye, b_txt=zero, log_tau=0.0)


def info_nce_grad(
    raw_img: np.ndarray, raw_txt: np.ndarray, head: ProjectionHead
) -> tuple[float, np.ndarray]:
    """Loss and analytic gradient through projection + normalization.

    Returns (loss, grad) with grad a record of ``head.record``'s dtype.  A
    projected row without a direction raises DegenerateVectorError.
    """
    x_img = np.asarray(raw_img, dtype=np.float64)
    x_txt = np.asarray(raw_txt, dtype=np.float64)
    b = x_img.shape[0]
    if b < 1:
        raise UsageError("batch must be nonempty")

    r_u = head.project_img(x_img)
    r_v = head.project_txt(x_txt)
    # The norms stay for the backward pass, so the rule gets them directly.
    nu = np.linalg.norm(r_u, axis=1)
    nv = np.linalg.norm(r_v, axis=1)
    check_directions(r_u, nu)
    check_directions(r_v, nv)
    u = r_u / nu[:, None]
    v = r_v / nv[:, None]

    tau = head.tau
    s = u @ v.T
    s /= tau

    # Each logsumexp is one max, exp and sum along its own axis.
    peak = s.max(axis=1)
    lse_row = peak + np.log(np.exp(s - peak[:, None]).sum(axis=1))
    peak = s.max(axis=0)
    lse_col = peak + np.log(np.exp(s - peak).sum(axis=0))
    diag = s.diagonal()
    loss = float(0.5 * ((lse_row - diag).mean() + (lse_col - diag).mean()))

    # dL/dS: softmax over rows and columns minus twice the matched diagonal.
    g = np.exp(s - lse_row[:, None])
    g += np.exp(s - lse_col)
    g.flat[:: b + 1] -= 2.0
    g /= 2.0 * b

    du = g @ v
    du /= tau
    dv = g.T @ u
    dv /= tau
    # s depends on tau as 1/exp(log_tau): d s_ij / d log_tau = -s_ij.
    d_log_tau = float(-(g * s).sum())

    # Through u = r/||r||: project out the radial component, scale by 1/||r||.
    du -= (du * u).sum(axis=1, keepdims=True) * u
    du /= nu[:, None]
    dv -= (dv * v).sum(axis=1, keepdims=True) * v
    dv /= nv[:, None]

    grad = np.empty((), dtype=head.record.dtype)
    np.matmul(x_img.T, du, out=grad["W_img"])
    np.sum(du, axis=0, out=grad["b_img"])
    np.matmul(x_txt.T, dv, out=grad["W_txt"])
    np.sum(dv, axis=0, out=grad["b_txt"])
    grad["log_tau"] = d_log_tau
    return loss, grad


def cosine_lr(base: float, t: float, horizon: float) -> float:
    """base/2 (1 + cos(pi t / horizon)); base at t=0, zero at t=horizon."""
    return base * 0.5 * (1.0 + math.cos(math.pi * t / horizon))


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam with bias correction.

    Weight decay applies to every parameter uniformly, scaled by the
    scheduled learning rate.  The temperature is clamped after each step.
    The moments ``m`` and ``v`` are vectors like the stepped ``theta``, made
    at the first step and updated in place.
    """

    base_lr: float
    weight_decay: float
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(
    state: OptimizerState, theta: np.ndarray, grad: np.ndarray, t: float, horizon: float
) -> float:
    """One AdamW step at schedule position t of horizon; returns the lr used.

    Mutates the float64 vector ``theta`` in place; ``grad`` has its shape.
    The last entry of ``theta`` is log_tau, clamped to [ln 1e-3, ln 0.5]
    afterward.
    """
    state.step_count += 1
    lr = cosine_lr(state.base_lr, t, horizon)
    bc1 = 1.0 - BETA1**state.step_count
    bc2 = 1.0 - BETA2**state.step_count
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad**2
    # theta -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * theta)
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += EPS
    step = m / bc1
    step /= denom
    step += np.multiply(state.weight_decay, theta, out=denom)
    step *= lr
    theta -= step
    theta[-1] = min(max(theta[-1], LOG_TAU_MIN), LOG_TAU_MAX)
    return lr


# One optimizer step: its number from 1, its epoch, the learning rate and the
# loss; the loss CSV writes them all.
LOSS_RECORD = np.dtype([("step", "<i8"), ("epoch", "<i8"), ("lr", "<f8"), ("loss", "<f8")])
LOSS_FORMATS = {"step": "%d", "epoch": "%d", "lr": "%.9g", "loss": "%.9g"}


def _diverged(step: int, epoch: int, why: str) -> NumericalFailureError:
    return NumericalFailureError(f"training diverged at step {step} (epoch {epoch}): {why}")


def _trainer(corpus: Corpus, cfg: EngineConfig) -> tuple[ProjectionHead, list[tuple], Callable]:
    """The seeded head, its list of ``LOSS_RECORD`` tuples and ``step(rows,
    epoch)``, which takes one optimizer step on ``rows`` at the start of
    ``epoch`` and appends it; a projected row without a direction before it,
    or a non-finite loss or parameter after it, raises NumericalFailureError."""
    head = init_head(corpus.d_img, corpus.d_txt, cfg.proj_dim, cfg.tau_init, cfg.seed)
    state = OptimizerState(base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    steps: list[tuple] = []

    def step(rows: np.ndarray, epoch: int) -> None:
        number = len(steps) + 1
        try:
            loss, grad = info_nce_grad(corpus.img[rows], corpus.txt[rows], head)
        except DegenerateVectorError as exc:
            raise _diverged(number, epoch, f"projected {exc}") from None
        lr = optimizer_step(state, head.theta, _flat(grad), t=epoch - 1, horizon=cfg.epochs)
        if not (math.isfinite(loss) and np.all(np.isfinite(head.theta))):
            raise _diverged(number, epoch, "non-finite loss or parameters")
        steps.append((number, epoch, lr, loss))

    return head, steps, step


def _epochs(step: Callable, rows: np.ndarray, cfg: EngineConfig, first: int) -> None:
    """Epochs ``first``..cfg.epochs over ``rows``, each in seeded-shuffled
    mini-batches; the shuffles start from a fresh ``default_rng(cfg.seed)``."""
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(first, cfg.epochs + 1):
        perm = rng.permutation(len(rows))
        for start in range(0, len(rows), cfg.batch_size):
            step(rows[perm[start : start + cfg.batch_size]], epoch)


def train_head(
    corpus: Corpus, cfg: EngineConfig, rows: np.ndarray
) -> tuple[ProjectionHead, np.ndarray]:
    """Fixed-set training: seeded-shuffled mini-batches for cfg.epochs epochs.

    ``rows`` selects the corpus rows to train on (e.g. a curated selection;
    ``np.arange(corpus.n)`` for all).  Returns the head and one
    ``LOSS_RECORD`` per optimizer step.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise UsageError("cannot train on an empty selection")
    head, steps, step = _trainer(corpus, cfg)
    _epochs(step, rows, cfg, 1)
    return head, np.array(steps, dtype=LOSS_RECORD)


def train_joint(
    corpus: Corpus, cfg: EngineConfig
) -> tuple[ProjectionHead, np.ndarray, CuratedSelection, PrototypeBank]:
    """Curation epoch plus reuse epochs, one optimizer state throughout.

    Epoch 1 runs the online curation loop, taking one step per curated
    mini-batch with embeddings recomputed through the evolving head.
    Epochs 2..cfg.epochs iterate the curated selection like train_head.
    """
    head, steps, step = _trainer(corpus, cfg)
    try:
        selection, bank = run_curation(
            corpus, cfg, head=head, on_minibatch=lambda rows: step(rows, 1)
        )
    except DegenerateVectorError as exc:
        raise _diverged(len(steps) + 1, 1, f"projected {exc}") from None
    _epochs(step, selection.records["row"], cfg, 2)
    return head, np.array(steps, dtype=LOSS_RECORD), selection, bank


def encode_head(head: ProjectionHead) -> bytearray:
    dims = (head.W_img.shape[0], head.W_txt.shape[0], head.d_shared)
    return encode_records(
        HEAD_MAGIC, dims, _head_layout, {name: head.record[name] for name in PARAM_NAMES}
    )


def decode_head(data: bytes) -> ProjectionHead:
    _, (rec,) = decode_records(data, HEAD_MAGIC, ("d_img", "d_txt", "d_shared"), _head_layout)
    for name in PARAM_NAMES[:-1]:
        if not np.all(np.isfinite(rec[name])):
            raise FormatError(f"invalid head checkpoint: {name} has non-finite entries")
    log_tau = float(rec["log_tau"])
    if not LOG_TAU_MIN <= log_tau <= LOG_TAU_MAX:
        raise FormatError(f"invalid head checkpoint: log_tau {log_tau!r} outside [ln 1e-3, ln 0.5]")
    return ProjectionHead(*(rec[name] for name in PARAM_NAMES))


def load_head(path) -> ProjectionHead:
    with input_file(path, "head") as data:
        return decode_head(data)
