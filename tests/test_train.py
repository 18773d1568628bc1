"""Tests for optimizers, metrics, and the training loop."""

import math

import numpy as np
import pytest

import repro.ops as O
from repro.autodiff import compile_training
from repro.train import SGD, Adam, Speedometer, Trainer, corpus_bleu
from repro.train.metrics import perplexity, sentence_clip_counts, token_accuracy
from repro.train.optimizer import Optimizer


class TestSgd:
    def test_plain_update(self):
        opt = SGD(learning_rate=0.5)
        params = {"w": np.array([1.0, 2.0], np.float32)}
        grads = {"w": np.array([0.2, -0.4], np.float32)}
        opt.update(params, grads)
        np.testing.assert_allclose(params["w"], [0.9, 2.2], rtol=1e-6)

    def test_momentum_accumulates(self):
        opt = SGD(learning_rate=1.0, momentum=0.9)
        params = {"w": np.zeros(1, np.float32)}
        grads = {"w": np.ones(1, np.float32)}
        opt.update(params, grads)   # v=1, w=-1
        opt.update(params, grads)   # v=1.9, w=-2.9
        np.testing.assert_allclose(params["w"], [-2.9], rtol=1e-6)
        assert opt.state_copies == 1.0

    def test_clipping_rescales(self):
        opt = SGD(learning_rate=1.0, clip_norm=1.0)
        params = {"w": np.zeros(2, np.float32)}
        grads = {"w": np.array([3.0, 4.0], np.float32)}  # norm 5
        norm = opt.update(params, grads)
        assert abs(norm - 5.0) < 1e-6
        np.testing.assert_allclose(
            np.linalg.norm(params["w"]), 1.0, rtol=1e-5
        )

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step is ~lr * sign(g)."""
        opt = Adam(learning_rate=0.01)
        params = {"w": np.zeros(3, np.float32)}
        grads = {"w": np.array([1.0, -2.0, 0.5], np.float32)}
        opt.update(params, grads)
        np.testing.assert_allclose(
            params["w"], [-0.01, 0.01, -0.01], rtol=1e-3
        )

    def test_matches_reference_implementation(self):
        opt = Adam(learning_rate=0.1, beta1=0.9, beta2=0.999)
        w = np.array([0.3], np.float64)
        params = {"w": w.copy().astype(np.float32)}
        m = v = 0.0
        ref = w.copy()
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            g = rng.standard_normal(1)
            opt.update(params, {"w": g.astype(np.float32)})
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            ref -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], ref, rtol=1e-4)

    def test_state_copies_for_profiler(self):
        assert Adam().state_copies == 2.0

    def test_moments_are_allocated_once(self, monkeypatch):
        """Two zero moment arrays per parameter on the first step only."""
        import repro.train.optimizer as optimizer_mod

        made = []
        real = np.zeros_like

        def spy(*args, **kwargs):
            made.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer_mod.np, "zeros_like", spy)
        shapes = ((3,), (2, 4), (5,))
        opt = Adam(learning_rate=0.01)
        params = {f"p{j}": np.ones(s, np.float32) for j, s in enumerate(shapes)}
        for step in range(3):
            grads = {n: np.full(p.shape, step + 1.0, np.float32)
                     for n, p in params.items()}
            opt.update(params, grads)
        assert len(made) == 2 * len(params)

    def test_base_class_abstract(self):
        opt = Optimizer(0.1)
        with pytest.raises(NotImplementedError):
            opt.update({"w": np.zeros(1)}, {"w": np.ones(1)})


class TestUpdatePassesGradientsThrough:
    """Unclipped updates hand ``grad`` to the rule uncopied; the result is
    bit-for-bit what scaling every gradient by 1.0 first produced."""

    @staticmethod
    def _scaled_copy_update(opt, params, grads):
        """``Optimizer.update`` as it was: always ``grad * scale``."""
        opt._step += 1
        opt._start_step()
        norm = math.sqrt(sum(
            float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()
        ))
        scale = 1.0
        if opt.clip_norm is not None and norm > opt.clip_norm:
            scale = opt.clip_norm / (norm + 1e-12)
        for name, grad in grads.items():
            opt._update_one(name, params[name], grad * scale)

    @pytest.mark.parametrize("make", [
        lambda clip: SGD(0.2, clip_norm=clip),
        lambda clip: SGD(0.2, momentum=0.9, clip_norm=clip),
        lambda clip: Adam(1e-2, clip_norm=clip),
    ])
    @pytest.mark.parametrize("clip", [None, 1e9, 0.5])
    def test_bitwise_equal_to_scaled_copy(self, make, clip):
        gen = np.random.default_rng(3)
        shapes = {"w": (7, 5), "b": (5,), "s": ()}
        start = {k: gen.standard_normal(s).astype(np.float32)
                 for k, s in shapes.items()}
        new, old = make(clip), make(clip)
        params_new = {k: v.copy() for k, v in start.items()}
        params_old = {k: v.copy() for k, v in start.items()}
        for _ in range(4):
            grads = {k: gen.standard_normal(s).astype(np.float32)
                     for k, s in shapes.items()}
            grads["b"][0] = -0.0
            kept = {k: g.copy() for k, g in grads.items()}
            new.update(params_new, grads)
            self._scaled_copy_update(old, params_old, kept)
            for k in shapes:
                assert grads[k].tobytes() == kept[k].tobytes()  # not mutated
                assert params_new[k].tobytes() == params_old[k].tobytes()


class TestGradientNorm:
    def test_norm_equals_float64_copy_expression(self):
        """``update`` widens while squaring instead of squaring a float64
        copy; the norm it returns is bit-for-bit the old expression's, over
        every parameter shape of the harness NMT model."""
        from repro.models import NmtConfig, build_nmt
        from repro.nn import Backend
        from tests.test_compile_linear import HARNESS_NMT

        model = build_nmt(NmtConfig(backend=Backend.CUDNN, **HARNESS_NMT))
        params = model.store.initialize(seed=5)
        gen = np.random.default_rng(6)
        grads = {
            name: (gen.standard_normal(p.shape) * 10.0 ** gen.integers(-4, 3))
            .astype(p.dtype)
            for name, p in params.items()
        }
        want = math.sqrt(sum(
            float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()
        ))
        got = SGD(0.1).update({k: v.copy() for k, v in params.items()}, grads)
        assert got == want


class TestMetrics:
    def test_perplexity(self):
        assert perplexity(0.0) == 1.0
        assert abs(perplexity(math.log(50.0)) - 50.0) < 1e-9
        assert math.isfinite(perplexity(1000.0))  # clamped

    def test_bleu_known_value(self):
        # hyp 4-token, ref 4-token, 3 unigram matches, 2 bigram, 1 trigram
        hyp = [[5, 6, 7, 9]]
        ref = [[5, 6, 7, 8]]
        score = corpus_bleu(hyp, ref, max_order=2, smooth=False)
        # p1 = 3/4, p2 = 2/3, BP = 1 -> 100*sqrt(0.5) = 70.71
        assert abs(score - 100 * math.sqrt(0.5)) < 0.01

    def test_bleu_brevity_penalty(self):
        hyp = [[5, 6]]
        ref = [[5, 6, 7, 8]]
        score = corpus_bleu(hyp, ref, max_order=1, smooth=False)
        assert abs(score - 100 * math.exp(1 - 2.0)) < 0.01

    def test_bleu_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [[1], [2]])

    def test_bleu_empty_corpus(self):
        assert corpus_bleu([], []) == 0.0

    def test_clip_counts(self):
        matches, total = sentence_clip_counts([1, 1, 1], [1, 1], 1)
        assert (matches, total) == (2, 3)  # clipping caps repeats

    def test_token_accuracy_ignores_padding(self):
        preds = [[1, 2, 3]]
        labels = [[1, 9, -1]]
        assert token_accuracy(preds, labels) == 0.5


class TestSpeedometer:
    def test_windowed_throughput(self):
        meter = Speedometer(window=3)
        for i in range(5):
            meter.update(samples=i * 10, sim_seconds=i * 1.0)
        assert abs(meter.throughput() - 10.0) < 1e-9

    def test_insufficient_data(self):
        meter = Speedometer()
        assert meter.throughput() == 0.0
        meter.update(10, 1.0)
        assert meter.throughput() == 0.0


def _toy_graph(batch=4, dim=6, classes=5):
    x = O.placeholder((batch, dim), name="tx")
    labels = O.placeholder((batch,), np.int64, name="ty")
    w = O.variable((classes, dim), name="tw")
    loss = O.softmax_cross_entropy(O.fully_connected(x, w), labels)
    return compile_training(loss, {"tw": w}, {"tx": x, "ty": labels})


class TestTrainer:
    def _make(self):
        graph = _toy_graph()
        params = {"tw": np.random.default_rng(0)
                  .standard_normal((5, 6)).astype(np.float32) * 0.1}
        return Trainer(graph, params, SGD(0.5), batch_size=4)

    def _feeds(self, seed=0):
        gen = np.random.default_rng(seed)
        return {"tx": gen.standard_normal((4, 6)).astype(np.float32),
                "ty": gen.integers(0, 5, 4)}

    def test_history_and_clock_advance(self):
        trainer = self._make()
        r1 = trainer.step(self._feeds(1))
        r2 = trainer.step(self._feeds(2))
        assert r2.step == r1.step + 1
        assert r2.sim_seconds > r1.sim_seconds
        assert r2.samples_seen == 8
        assert len(trainer.history) == 2

    def test_loss_decreases_on_fixed_batch(self):
        trainer = self._make()
        feeds = self._feeds(3)
        first = trainer.step(feeds).loss
        for _ in range(20):
            last = trainer.step(feeds).loss
        assert last < first

    def test_divergence_detected(self):
        graph = _toy_graph()
        params = {"tw": np.full((5, 6), np.nan, np.float32)}
        trainer = Trainer(graph, params, SGD(0.1), batch_size=4)
        with pytest.raises(FloatingPointError, match="diverged"):
            trainer.step(self._feeds(4))

    def test_throughput_positive(self):
        trainer = self._make()
        assert trainer.throughput() > 0
        assert trainer.iteration_seconds > 0
        assert trainer.power_watts() > 0

    def test_batch_inference_requires_2d_placeholder(self):
        x = O.placeholder((4,), name="bi_x")
        w = O.variable((4,), name="bi_w")
        loss = O.reduce_mean(O.mul(x, w))
        graph = compile_training(loss, {"bi_w": w}, {"bi_x": x})
        with pytest.raises(ValueError):
            Trainer(graph, {"bi_w": np.ones(4, np.float32)}, SGD(0.1))

    def test_run_epoch(self):
        trainer = self._make()
        records = trainer.run_epoch(self._feeds(i) for i in range(5))
        assert len(records) == 5
