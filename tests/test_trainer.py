"""Contrastive trainer: loss values, analytic gradients, AdamW, training loops."""

import copy
import math

import numpy as np
import pytest

import oracles
from oracles import info_nce
from protocurate import trainer
from protocurate.config import EngineConfig
from protocurate.errors import FormatError, NumericalFailureError, UsageError
from protocurate.io import commit_outputs, table_csv
from protocurate.synth import generate_corpus
from protocurate.trainer import (
    LOG_TAU_MAX,
    LOG_TAU_MIN,
    LOSS_FORMATS,
    LOSS_RECORD,
    PARAM_NAMES,
    OptimizerState,
    ProjectionHead,
    _flat,
    cosine_lr,
    decode_head,
    encode_head,
    identity_head,
    info_nce_grad,
    init_head,
    load_head,
    optimizer_step,
    train_head,
    train_joint,
)


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def paired_corpus(n, d=8, seed=0, rho=1.0, noise=0.1):
    cfg = EngineConfig(
        n_samples=n,
        clusters=4,
        cluster_weights=(0.4, 0.3, 0.2, 0.1),
        d_img=d,
        d_txt=d,
        rho=rho,
        noise_scale=noise,
        mean_scale=3.0,
        seed=seed,
    )
    corpus, _ = generate_corpus(cfg)
    return corpus


class TestInfoNce:
    def test_single_pair_is_zero(self):
        rng = np.random.default_rng(0)
        u = unit_rows(rng, 1, 4)
        v = unit_rows(rng, 1, 4)
        assert info_nce(u, v, 0.1) == 0.0

    def test_orthonormal_pair_value(self):
        # matched similarity 1, mismatched 0, tau 1:
        # loss = ln(1 + e^-1)
        u = np.eye(2)
        v = np.eye(2)
        assert info_nce(u, v, 1.0) == pytest.approx(0.3132616875182228, abs=1e-15)

    def test_uniform_similarities_give_log_b(self):
        rng = np.random.default_rng(1)
        row = unit_rows(rng, 1, 6)
        for b in (2, 5, 17):
            u = np.repeat(row, b, axis=0)
            v = np.repeat(row, b, axis=0)
            assert info_nce(u, v, 0.3) == pytest.approx(math.log(b), abs=1e-12)

    def test_matched_permutation_invariance(self):
        rng = np.random.default_rng(2)
        u = unit_rows(rng, 9, 5)
        v = unit_rows(rng, 9, 5)
        base = info_nce(u, v, 0.2)
        perm = rng.permutation(9)
        assert info_nce(u[perm], v[perm], 0.2) == pytest.approx(base, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = int(rng.integers(1, 12))
            u = unit_rows(rng, b, 4)
            v = unit_rows(rng, b, 4)
            assert info_nce(u, v, float(rng.uniform(0.01, 1.0))) >= 0.0

    def test_bad_temperature(self):
        with pytest.raises(UsageError):
            info_nce(np.eye(2), np.eye(2), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            info_nce(np.eye(2), np.eye(3), 0.1)


def loss_via_pipeline(x_img, x_txt, head):
    """Independent loss evaluation: project, normalize, InfoNCE."""
    r_u = x_img @ head.W_img + head.b_img
    r_v = x_txt @ head.W_txt + head.b_txt
    u = r_u / np.linalg.norm(r_u, axis=1, keepdims=True)
    v = r_v / np.linalg.norm(r_v, axis=1, keepdims=True)
    return info_nce(u, v, head.tau)


class TestInfoNceGrad:
    def test_loss_matches_pipeline(self):
        rng = np.random.default_rng(4)
        head = init_head(5, 7, 4, tau_init=0.07, seed=1)
        x_img = rng.standard_normal((6, 5))
        x_txt = rng.standard_normal((6, 7))
        loss, _ = info_nce_grad(x_img, x_txt, head)
        assert loss == pytest.approx(loss_via_pipeline(x_img, x_txt, head), abs=1e-12)

    def test_single_pair_gradients_vanish(self):
        rng = np.random.default_rng(5)
        head = init_head(4, 4, 3, tau_init=0.1, seed=2)
        loss, grad = info_nce_grad(
            rng.standard_normal((1, 4)), rng.standard_normal((1, 4)), head
        )
        assert loss == 0.0
        for name in PARAM_NAMES:
            np.testing.assert_allclose(grad[name], 0.0, atol=1e-15)

    @pytest.mark.parametrize("b,d_img,d_txt,d_shared,seed", [
        (2, 4, 4, 3, 10),
        (8, 4, 6, 5, 11),
        (8, 16, 16, 8, 12),
    ])
    def test_finite_difference_oracle(self, b, d_img, d_txt, d_shared, seed):
        rng = np.random.default_rng(seed)
        head = init_head(d_img, d_txt, d_shared, tau_init=0.07, seed=seed)
        x_img = rng.standard_normal((b, d_img))
        x_txt = rng.standard_normal((b, d_txt))
        _, grad = info_nce_grad(x_img, x_txt, head)

        h = 1e-5

        def fd(mutate):
            hp, hm = copy.deepcopy(head), copy.deepcopy(head)
            mutate(hp, +h)
            mutate(hm, -h)
            return (
                loss_via_pipeline(x_img, x_txt, hp)
                - loss_via_pipeline(x_img, x_txt, hm)
            ) / (2 * h)

        def check(analytic, numeric):
            assert abs(analytic - numeric) <= 1e-6 + 1e-4 * abs(numeric)

        for i in range(d_img):
            for j in range(d_shared):
                def bump(hd, eps, i=i, j=j):
                    hd.W_img[i, j] += eps
                check(grad["W_img"][i, j], fd(bump))
        for i in range(d_txt):
            for j in range(d_shared):
                def bump(hd, eps, i=i, j=j):
                    hd.W_txt[i, j] += eps
                check(grad["W_txt"][i, j], fd(bump))
        for j in range(d_shared):
            def bump_bi(hd, eps, j=j):
                hd.b_img[j] += eps
            check(grad["b_img"][j], fd(bump_bi))

            def bump_bt(hd, eps, j=j):
                hd.b_txt[j] += eps
            check(grad["b_txt"][j], fd(bump_bt))

        def bump_tau(hd, eps):
            hd.log_tau += eps
        check(grad["log_tau"], fd(bump_tau))

    def test_duplicated_pairs_stay_finite(self):
        rng = np.random.default_rng(13)
        head = init_head(4, 4, 4, tau_init=0.1, seed=3)
        x = rng.standard_normal((2, 4))
        x_img = np.vstack([x, x])
        x_txt = np.vstack([x, x])
        loss, grad = info_nce_grad(x_img, x_txt, head)
        assert math.isfinite(loss) and loss > 0.0  # duplicates cannot be told apart
        for name in PARAM_NAMES:
            assert np.all(np.isfinite(grad[name]))

    def test_zero_projection_rejected(self):
        head = ProjectionHead(
            W_img=np.zeros((3, 2)),
            b_img=np.zeros(2),
            W_txt=np.eye(3, 2),
            b_txt=np.zeros(2),
            log_tau=math.log(0.1),
        )
        with pytest.raises(UsageError, match="zero"):
            info_nce_grad(np.ones((2, 3)), np.ones((2, 3)), head)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1, abs=1e-15)
        assert cosine_lr(0.1, 10, 10) == pytest.approx(0.0, abs=1e-15)
        assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05, abs=1e-15)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(1.0, t, 20) for t in range(21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def reference_adamw(p0, grads_seq, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar AdamW reference with plain floats."""
    p, m, v = p0, 0.0, 0.0
    out = []
    for k, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**k)
        v_hat = v / (1 - beta2**k)
        p = p - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * p)
        out.append(p)
    return out


class TestOptimizer:
    # theta is (w, log_tau): the stepped parameter, then the clamped temperature.
    def _theta(self, value):
        return np.array([value, math.log(0.1)])

    def test_zero_grad_zero_decay_is_identity(self):
        state = OptimizerState(base_lr=0.1, weight_decay=0.0)
        theta = self._theta(2.5)
        optimizer_step(state, theta, np.zeros(2), t=0, horizon=10)
        assert theta[0] == 2.5
        assert theta[1] == math.log(0.1)

    def test_decay_is_decoupled(self):
        state = OptimizerState(base_lr=0.1, weight_decay=0.01)
        theta = self._theta(2.0)
        optimizer_step(state, theta, np.zeros(2), t=0, horizon=10)
        assert theta[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01), abs=1e-15)

    def test_first_step_magnitude(self):
        # fresh state: m_hat = g, v_hat = g^2, update = lr g/(|g|+eps)
        state = OptimizerState(base_lr=0.1, weight_decay=0.0)
        theta = self._theta(1.0)
        optimizer_step(state, theta, np.array([0.5, 0.0]), t=0, horizon=10)
        want = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert theta[0] == pytest.approx(want, abs=1e-15)

    def test_matches_scalar_reference_trajectory(self):
        rng = np.random.default_rng(14)
        grads_seq = [float(g) for g in rng.standard_normal(6)]
        state = OptimizerState(base_lr=0.03, weight_decay=0.02)
        theta = self._theta(1.7)
        got = []
        for g in grads_seq:
            optimizer_step(state, theta, np.array([g, 0.0]), t=0, horizon=10)
            got.append(float(theta[0]))
        want = reference_adamw(1.7, grads_seq, lr=0.03, wd=0.02)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_lr_follows_schedule(self):
        state = OptimizerState(base_lr=0.5, weight_decay=0.0)
        theta = self._theta(0.0)
        zero = np.zeros(2)
        assert optimizer_step(state, theta, zero, t=0, horizon=4) == pytest.approx(0.5)
        assert optimizer_step(state, theta, zero, t=2, horizon=4) == pytest.approx(0.25)

    def test_log_tau_clamped_both_sides(self):
        for start, expect in ((math.log(0.9), LOG_TAU_MAX), (math.log(1e-5), LOG_TAU_MIN)):
            state = OptimizerState(base_lr=0.0, weight_decay=0.0)
            theta = np.array([start])
            optimizer_step(state, theta, np.zeros(1), t=0, horizon=1)
            assert theta[0] == expect


class TestDirectForms:
    @pytest.mark.parametrize("d", [32, 128])
    def test_500_steps_match_bit_for_bit(self, d):
        # The in-place step and its direct form, each on its own head and
        # state, over 500 steps of a learning run at the default batch size.
        rng = np.random.default_rng(d)
        head = init_head(d, d, 32, tau_init=0.01, seed=d)
        direct = copy.deepcopy(head)
        state = OptimizerState(base_lr=1e-3, weight_decay=1e-4)
        direct_state = OptimizerState(base_lr=1e-3, weight_decay=1e-4)
        for step in range(500):
            x_img = rng.standard_normal((64, d))
            x_txt = x_img + 0.3 * rng.standard_normal((64, d))
            loss, grad = info_nce_grad(x_img, x_txt, head)
            want_loss, want_grad = oracles.info_nce_grad_direct(x_img, x_txt, direct)
            assert loss == want_loss, step
            assert grad.tobytes() == want_grad.tobytes(), step
            lr = optimizer_step(state, head.theta, _flat(grad), step / 100, 5)
            assert lr == oracles.optimizer_step_direct(
                direct_state, direct.theta, _flat(want_grad), step / 100, 5
            )
            assert head.record.tobytes() == direct.record.tobytes(), step
        assert state.m.tobytes() == direct_state.m.tobytes()
        assert state.v.tobytes() == direct_state.v.tobytes()


class TestTrainHead:
    CFG = dict(
        proj_dim=8,
        learning_rate=0.01,
        weight_decay=1e-4,
        epochs=6,
        batch_size=32,
        tau_init=0.05,
        seed=0,
    )

    def test_loss_decreases(self):
        corpus = paired_corpus(256, seed=20)
        head, rows = train_head(corpus, EngineConfig(**self.CFG), np.arange(corpus.n))
        assert rows.dtype == LOSS_RECORD
        first = float(np.mean(rows["loss"][rows["epoch"] == 1]))
        last = float(np.mean(rows["loss"][rows["epoch"] == rows["epoch"].max()]))
        assert last < first * 0.5

    def test_step_and_epoch_bookkeeping(self):
        corpus = paired_corpus(100, seed=21)
        cfg = EngineConfig(**{**self.CFG, "epochs": 3})
        head, rows = train_head(corpus, cfg, np.arange(corpus.n))
        assert rows["step"].tolist() == list(range(1, len(rows) + 1))
        steps_per_epoch = math.ceil(100 / cfg.batch_size)
        assert len(rows) == 3 * steps_per_epoch
        for epoch, lr in zip(rows["epoch"].tolist(), rows["lr"].tolist()):
            assert lr == pytest.approx(
                cosine_lr(cfg.learning_rate, epoch - 1, cfg.epochs), abs=1e-15
            )

    def test_deterministic(self):
        corpus = paired_corpus(128, seed=22)
        cfg = EngineConfig(**self.CFG)
        h1, r1 = train_head(corpus, cfg, np.arange(corpus.n))
        h2, r2 = train_head(corpus, cfg, np.arange(corpus.n))
        assert encode_head(h1) == encode_head(h2)
        assert r1.tobytes() == r2.tobytes()

    def test_subset_rows(self):
        corpus = paired_corpus(128, seed=23)
        cfg = EngineConfig(**{**self.CFG, "epochs": 2, "batch_size": 16})
        _, rows = train_head(corpus, cfg, rows=np.arange(40))
        assert len(rows) == 2 * math.ceil(40 / 16)

    def test_tau_stays_clamped(self):
        corpus = paired_corpus(128, seed=24)
        head, _ = train_head(corpus, EngineConfig(**self.CFG), np.arange(corpus.n))
        assert 1e-3 - 1e-12 <= head.tau <= 0.5 + 1e-12

    def test_empty_selection_rejected(self):
        corpus = paired_corpus(128, seed=25)
        with pytest.raises(UsageError):
            train_head(corpus, EngineConfig(**self.CFG), rows=np.array([], dtype=np.int64))

    def test_divergence_stops_at_the_step(self):
        corpus = paired_corpus(128, seed=26)
        cfg = EngineConfig(**{**self.CFG, "learning_rate": 1e300})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError, match=r"diverged at step \d+ \(epoch 1\)"):
                train_head(corpus, cfg, np.arange(corpus.n))


class TestTrainJoint:
    CFG = dict(
        superbatch_size=64,
        warmup_samples=128,
        K=4,
        proj_dim=8,
        learning_rate=1e-3,
        epochs=3,
        batch_size=16,
        tau_init=0.05,
        seed=0,
    )

    def test_shapes_and_bookkeeping(self):
        corpus = paired_corpus(128 + 2 * 64, seed=28)
        head, rows, selection, bank = train_joint(corpus, EngineConfig(**self.CFG))
        assert len(selection) > 0
        assert bank.update_count == 2  # one EMA update per curation iteration
        assert rows.dtype == LOSS_RECORD
        assert rows["step"].tolist() == list(range(1, len(rows) + 1))
        epoch1 = rows[rows["epoch"] == 1]
        assert len(epoch1) == 2  # one optimizer step per curated mini-batch
        later = rows["epoch"][rows["epoch"] > 1].tolist()
        assert sorted(set(later)) == [2, 3]
        n_sel = len(selection)
        per_epoch = math.ceil(n_sel / 16)
        assert len(later) == 2 * per_epoch

    def test_deterministic(self):
        corpus = paired_corpus(128 + 64, seed=29)
        cfg = EngineConfig(**self.CFG)
        a = train_joint(corpus, cfg)
        b = train_joint(corpus, cfg)
        assert encode_head(a[0]) == encode_head(b[0])
        assert a[2].to_csv() == b[2].to_csv()

    def test_reuse_epochs_take_train_heads_batches(self, monkeypatch):
        """Epochs 2..E of the joint loop take the batches, in order, that
        train_head takes in E - 1 epochs over the joint selection's rows."""
        corpus = paired_corpus(1500, seed=3)
        cfg = EngineConfig(**{**self.CFG, "seed": 3})
        batches = []
        grad = trainer.info_nce_grad

        def recording(raw_img, raw_txt, head):
            batches.append(raw_img.copy())
            return grad(raw_img, raw_txt, head)

        monkeypatch.setattr(trainer, "info_nce_grad", recording)
        _, joint, selection, _ = train_joint(corpus, cfg)
        reuse = batches[np.count_nonzero(joint["epoch"] == 1) :]
        batches.clear()
        fixed = EngineConfig(**{**self.CFG, "seed": 3, "epochs": cfg.epochs - 1})
        train_head(corpus, fixed, selection.records["row"])
        assert len(reuse) == len(batches) > 0
        assert all(np.array_equal(a, b) for a, b in zip(reuse, batches))

    def test_head_moves_from_init(self):
        corpus = paired_corpus(128 + 64, seed=30)
        cfg = EngineConfig(**self.CFG)
        head, _, _, _ = train_joint(corpus, cfg)
        init = init_head(corpus.d_img, corpus.d_txt, cfg.proj_dim, cfg.tau_init, seed=cfg.seed)
        assert not np.array_equal(head.W_img, init.W_img)


class TestParameterRecord:
    def test_theta_shares_memory_with_every_parameter(self):
        head = init_head(3, 4, 2, tau_init=0.1, seed=37)
        for name in PARAM_NAMES[:-1]:
            assert np.shares_memory(getattr(head, name), head.theta)
        np.testing.assert_array_equal(
            head.theta, np.concatenate([np.ravel(head.record[n]) for n in PARAM_NAMES])
        )
        head.theta[-1] = math.log(0.2)
        assert head.log_tau == math.log(0.2)
        head.theta[0] = 7.0
        assert head.W_img[0, 0] == 7.0

    def test_checkpoint_payload_is_theta(self):
        head = init_head(3, 4, 2, tau_init=0.1, seed=38)
        data = encode_head(head)
        assert data[-head.theta.nbytes :] == head.theta.tobytes()
        assert len(data) == len(b"XFICHEAD") + 3 * 4 + head.theta.nbytes

    def test_deepcopy_stays_consistent(self):
        head = init_head(3, 4, 2, tau_init=0.1, seed=39)
        before = head.W_img.copy()
        clone = copy.deepcopy(head)
        clone.theta[:] += 1.0
        np.testing.assert_array_equal(clone.W_img, before + 1.0)
        np.testing.assert_array_equal(head.W_img, before)

    def test_step_moves_every_parameter_in_place(self):
        corpus = paired_corpus(32, seed=40)
        head = init_head(corpus.d_img, corpus.d_txt, 4, tau_init=0.1, seed=40)
        views = {name: getattr(head, name) for name in PARAM_NAMES[:-1]}
        before = head.theta.copy()
        _, grad = info_nce_grad(corpus.img, corpus.txt, head)
        flat = np.concatenate([np.ravel(grad[n]) for n in PARAM_NAMES])
        optimizer_step(OptimizerState(base_lr=0.01, weight_decay=0.0), head.theta, flat, 0, 1)
        for name, view in views.items():
            np.testing.assert_array_equal(view, getattr(head, name))
        assert not np.any(head.theta == before)

    # W_img and W_txt must be 2-D, and their first dims set the layout; every
    # other shape is checked against it.
    @pytest.mark.parametrize("name,bad", [
        ("b_img", np.zeros(3)),
        ("W_txt", np.zeros((4, 3))),
        ("b_txt", np.zeros(3)),
        ("b_txt", np.zeros((2, 1))),
        ("log_tau", np.zeros(1)),
        ("W_img", np.zeros(3)),
        ("W_txt", np.zeros((4, 2, 1))),
    ])
    def test_wrong_shape_named(self, name, bad):
        values = dict(
            W_img=np.zeros((3, 2)), b_img=np.zeros(2), W_txt=np.zeros((4, 2)),
            b_txt=np.zeros(2), log_tau=0.0,
        )
        values[name] = bad
        with pytest.raises(UsageError, match=f"^{name} has shape"):
            ProjectionHead(**values)


class TestHeadCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        head = init_head(5, 9, 4, tau_init=0.02, seed=31)
        data = encode_head(head)
        back = decode_head(data)
        assert np.array_equal(back.W_img, head.W_img)
        assert np.array_equal(back.b_img, head.b_img)
        assert np.array_equal(back.W_txt, head.W_txt)
        assert np.array_equal(back.b_txt, head.b_txt)
        assert back.log_tau == head.log_tau
        assert encode_head(back) == data

        commit_outputs([(tmp_path / "h.bin", data)])
        assert encode_head(load_head(tmp_path / "h.bin")) == data

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            decode_head(b"NOTAHEAD" + b"\x00" * 40)

    def test_length_mismatch(self):
        data = encode_head(identity_head(3))
        with pytest.raises(FormatError, match="bytes"):
            decode_head(data[:-8])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["W_img", "b_img", "W_txt", "b_txt"])
    def test_non_finite_parameter_rejected(self, name, bad):
        head = init_head(3, 4, 2, tau_init=0.01, seed=34)
        getattr(head, name).flat[-1] = bad
        with pytest.raises(FormatError, match=f"invalid head checkpoint: {name} has non-finite"):
            decode_head(encode_head(head))

    @pytest.mark.parametrize(
        "log_tau",
        [np.inf, -np.inf, np.nan, 1000.0, np.nextafter(LOG_TAU_MAX, 0.0),
         np.nextafter(LOG_TAU_MIN, -np.inf)],
        ids=["inf", "-inf", "nan", "1000", "above-max", "below-min"],
    )
    def test_log_tau_outside_clamp_rejected(self, log_tau):
        head = init_head(3, 4, 2, tau_init=0.01, seed=35)
        head.log_tau = float(log_tau)
        with pytest.raises(FormatError, match="invalid head checkpoint: log_tau .* outside"):
            decode_head(encode_head(head))

    @pytest.mark.parametrize("log_tau", [LOG_TAU_MIN, LOG_TAU_MAX], ids=["min", "max"])
    def test_log_tau_at_clamp_accepted(self, log_tau):
        head = init_head(3, 4, 2, tau_init=0.01, seed=36)
        head.log_tau = log_tau
        assert decode_head(encode_head(head)).log_tau == log_tau


class TestIdentityHead:
    def test_pass_through(self):
        rng = np.random.default_rng(32)
        head = identity_head(6)
        x = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(head.project_img(x), x)
        np.testing.assert_array_equal(head.project_txt(x), x)
        assert head.tau == 1.0

    def test_unified_norms(self):
        rng = np.random.default_rng(33)
        head = identity_head(5)
        img = rng.standard_normal((7, 5))
        txt = rng.standard_normal((7, 5))
        z = head.unified(img, txt, "concat")
        assert z.shape == (7, 10)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), math.sqrt(2), atol=1e-12)
        z_img = head.unified(img, txt, "image_only")
        np.testing.assert_allclose(np.linalg.norm(z_img, axis=1), 1.0, atol=1e-12)


class TestLossCsv:
    def test_format(self):
        rows = np.array([(1, 1, 0.01, 2.5), (2, 1, 0.01, 1.25)], dtype=LOSS_RECORD)
        text = table_csv(rows, LOSS_FORMATS)
        lines = text.strip().split("\n")
        assert lines[0] == "step,epoch,lr,loss"
        assert lines[1] == "1,1,0.01,2.5"
        assert len(lines) == 3

    def test_matches_per_line_oracle(self):
        corpus = paired_corpus(128 + 2 * 64, seed=31)
        _, fixed = train_head(
            corpus, EngineConfig(**{**TestTrainHead.CFG, "epochs": 2}), np.arange(corpus.n)
        )
        _, joint, _, _ = train_joint(corpus, EngineConfig(**TestTrainJoint.CFG))
        for losses in (fixed, joint):
            assert table_csv(losses, LOSS_FORMATS) == oracles.loss_csv(losses)
