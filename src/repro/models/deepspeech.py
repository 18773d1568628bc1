"""DeepSpeech2-style speech recognition model (Echo's second workload).

Convolutional spectrogram front-end, a stack of bidirectional LSTM layers,
a per-frame vocabulary projection, and CTC loss — the LSTM-heavy ASR
architecture the Echo paper evaluates alongside NMT. The recurrent stack
dominates both runtime and stash, so the pass's wins carry over from the
translation workload; the convolution front-end adds non-recomputable
(GEMM-class) nodes that the candidate mining must route around.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import repro.ops as O
from repro.autodiff import TrainingGraph, compile_training
from repro.graph import Tensor, scope
from repro.nn import Backend, OutputLayer, ParamStore
from repro.nn.rnn import bidirectional_lstm
from repro.runtime.collector import pauses_collector


@dataclass(frozen=True)
class DeepSpeechConfig:
    """Hyperparameters of the scaled DS2 model."""

    vocab_size: int = 29  # 26 letters + apostrophe/space + blank(0)
    feat_dim: int = 40  # spectrogram bins
    num_frames: int = 50  # input frames T
    conv_channels: int = 32
    hidden_size: int = 256
    num_layers: int = 3
    max_label_len: int = 12
    batch_size: int = 16
    backend: Backend = Backend.CUDNN

    def with_backend(self, backend: Backend) -> "DeepSpeechConfig":
        return replace(self, backend=backend)

    @property
    def conv_frames(self) -> int:
        """Frames after the stride-2 convolution."""
        return (self.num_frames + 2 * 1 - 3) // 2 + 1

    @property
    def conv_feat(self) -> int:
        return (self.feat_dim + 2 * 1 - 3) // 2 + 1

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("need at least blank + one label")
        if self.max_label_len > self.conv_frames // 2:
            raise ValueError(
                "transcripts too long to align: "
                f"{self.max_label_len} labels vs {self.conv_frames} frames"
            )


@dataclass
class DeepSpeechModel:
    config: DeepSpeechConfig
    store: ParamStore
    graph: TrainingGraph
    #: per-frame logits [T' x B x V], kept for decoding
    logits: Tensor


@pauses_collector
def build_deepspeech(
    config: DeepSpeechConfig, store: ParamStore | None = None
) -> DeepSpeechModel:
    """Training graph: features [T x B x F] + labels [B x L] -> CTC loss."""
    store = store or ParamStore()
    cfg = config
    batch = cfg.batch_size

    features = O.placeholder((cfg.num_frames, batch, cfg.feat_dim),
                             name="features")
    labels = O.placeholder((batch, cfg.max_label_len), np.int64,
                           name="ctc_labels")

    with scope("conv"):
        # [T x B x F] -> [B x 1 x T x F]
        image = O.expand_dims(O.transpose(features, (1, 0, 2)), 1)
        w1 = store.get("conv1.w", (cfg.conv_channels, 1, 3, 3))
        b1 = store.get("conv1.b", (cfg.conv_channels,), init="zeros")
        conv1 = O.relu(O.conv2d(image, w1, b1, stride=2, pad=1))
        w2 = store.get("conv2.w",
                       (cfg.conv_channels, cfg.conv_channels, 3, 3))
        b2 = store.get("conv2.b", (cfg.conv_channels,), init="zeros")
        conv2 = O.relu(O.conv2d(conv1, w2, b2, stride=1, pad=1))
        # [B x C x T' x F'] -> [T' x B x C*F']
        frames = O.reshape(
            O.transpose(conv2, (2, 0, 1, 3)),
            (cfg.conv_frames, batch, cfg.conv_channels * cfg.conv_feat),
        )

    with scope("rnn"):
        hidden = frames
        for layer in range(cfg.num_layers):
            hidden = bidirectional_lstm(
                store, f"birnn.l{layer}", hidden, cfg.hidden_size,
                backend=cfg.backend,
            )

    output = OutputLayer(store, "output", cfg.hidden_size, cfg.vocab_size,
                         layout=cfg.backend.layout)
    flat_logits = output.logits(hidden)  # [T'*B x V]
    logits = O.reshape(
        flat_logits, (cfg.conv_frames, batch, cfg.vocab_size)
    )
    with scope("output"):
        loss = O.ctc_loss(logits, labels)

    graph = compile_training(
        loss,
        params=store.tensors,
        placeholders={"features": features, "ctc_labels": labels},
        extra_outputs={"logits": logits},
    )
    return DeepSpeechModel(config=cfg, store=store, graph=graph,
                           logits=logits)


def ctc_greedy_decode(logits: np.ndarray, blank: int = 0) -> list[list[int]]:
    """Best-path decoding: per-frame argmax, collapse repeats, drop blanks.

    ``logits`` is [T x B x V]; returns one token list per batch lane.
    """
    best = logits.argmax(axis=-1)  # [T x B]
    results = []
    for b in range(best.shape[1]):
        tokens = []
        previous = blank
        for symbol in best[:, b]:
            if symbol != blank and symbol != previous:
                tokens.append(int(symbol))
            previous = symbol
        results.append(tokens)
    return results
