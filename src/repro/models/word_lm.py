"""Word-level language model (paper Section 2.1, Figure 2).

Embedding -> L-layer LSTM -> vocabulary projection -> perplexity loss, the
workload the paper uses to evaluate the data layout optimization (its
runtime is almost pure LSTM, free of the NMT model's many tiny decoder
kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import repro.ops as O
from repro.autodiff import TrainingGraph, compile_training
from repro.graph import scope
from repro.graph import Tensor
from repro.nn import Backend, OutputLayer, ParamStore, WordEmbedding
from repro.nn.rnn import gru_layer, lstm_layer, multilayer_lstm
from repro.runtime.collector import pauses_collector


@dataclass(frozen=True)
class WordLmConfig:
    """Hyperparameters of the language model (MXNet word_lm defaults)."""

    vocab_size: int = 10000
    embed_size: int = 512
    hidden_size: int = 512
    num_layers: int = 2
    seq_len: int = 35
    batch_size: int = 32
    dropout: float = 0.0
    backend: Backend = Backend.DEFAULT
    #: recurrent cell type: "lstm" (default), "gru" (3 gates), or
    #: "lstm_peephole" (Gers & Schmidhuber; unfused-only, as on real GPUs)
    cell: str = "lstm"

    def with_backend(self, backend: Backend) -> "WordLmConfig":
        return replace(self, backend=backend)

    def __post_init__(self) -> None:
        if self.vocab_size < 2 or self.hidden_size < 1:
            raise ValueError("degenerate model configuration")
        if self.cell not in ("lstm", "gru", "lstm_peephole"):
            raise ValueError(f"unknown cell type {self.cell!r}")


@dataclass
class WordLmModel:
    """A built language model: training graph + parameter store."""

    config: WordLmConfig
    store: ParamStore
    graph: TrainingGraph


def _recurrent_stack(
    store: ParamStore, cfg: WordLmConfig, embedded: Tensor
) -> Tensor:
    """The configured recurrent layers over [T x B x E]."""
    if cfg.cell == "lstm":
        hidden, _ = multilayer_lstm(
            store, "lstm", embedded, cfg.hidden_size, cfg.num_layers,
            backend=cfg.backend, dropout=cfg.dropout,
        )
        return hidden
    current = embedded
    for layer in range(cfg.num_layers):
        if cfg.cell == "gru":
            current = gru_layer(
                store, f"gru.l{layer}", current, cfg.hidden_size,
                backend=cfg.backend,
            )
        else:  # lstm_peephole
            current, _ = lstm_layer(
                store, f"lstm.l{layer}", current, cfg.hidden_size,
                backend=cfg.backend, peephole=True,
            )
        if cfg.dropout > 0.0 and layer < cfg.num_layers - 1:
            current = O.dropout(current, cfg.dropout, seed=31 + layer)
    return current


@pauses_collector
def build_word_lm(
    config: WordLmConfig, store: ParamStore | None = None
) -> WordLmModel:
    """Construct the training graph for one iteration.

    Placeholders: ``tokens`` and ``labels``, both [T x B] int64 (labels are
    the next-token targets; ``-1`` marks padding).
    """
    store = store or ParamStore()
    cfg = config

    tokens = O.placeholder((cfg.seq_len, cfg.batch_size), np.int64, name="tokens")
    labels = O.placeholder((cfg.seq_len, cfg.batch_size), np.int64, name="labels")

    embedding = WordEmbedding(store, "embedding", cfg.vocab_size, cfg.embed_size)
    embedded = embedding(tokens)  # [T x B x E]
    if cfg.dropout > 0.0:
        embedded = O.dropout(embedded, cfg.dropout, seed=11)

    with scope("rnn"):
        hidden = _recurrent_stack(store, cfg, embedded)
    if cfg.dropout > 0.0:
        hidden = O.dropout(hidden, cfg.dropout, seed=13)

    output = OutputLayer(
        store, "output", cfg.hidden_size, cfg.vocab_size,
        layout=cfg.backend.layout,
    )
    loss = output.loss(hidden, labels)

    graph = compile_training(
        loss,
        params=store.tensors,
        placeholders={"tokens": tokens, "labels": labels},
    )
    return WordLmModel(config=cfg, store=store, graph=graph)
