"""Sockeye-style NMT model: LSTM encoder-decoder with MLP attention
(paper Section 2.2, Figure 3).

Structure, per the paper:

* **Encoder** — source embedding, a bi-directional first LSTM layer (this
  is where ``SequenceReverse`` appears, Figure 6's pathological operator),
  then uni-directional layers; produces encoder states [B x T_src x H].
* **Attention** — MLP scoring function with layer normalization applied at
  every decoder step against all encoder positions; the O-shape region.
* **Decoder** — target embedding with *input feeding* (the previous
  attention hidden state is concatenated to the embedded token, which is
  why each decoder step instantiates a fresh attention layer), L-layer
  stepwise LSTM, attention-hidden projection.
* **Output** — vocabulary projection + cross-entropy (perplexity).

Also provides encoder-only and single-decoder-step graphs sharing the same
parameters, used by greedy decoding for BLEU evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

import repro.ops as O
from repro.autodiff import TrainingGraph, compile_training
from repro.graph import Tensor, scope
from repro.nn import (
    Backend,
    LstmCell,
    LstmStates,
    MlpAttention,
    DotAttention,
    OutputLayer,
    ParamStore,
    WordEmbedding,
)
from repro.nn.rnn import bidirectional_lstm, lstm_layer, unstack_time
from repro.runtime.collector import pauses_collector


@dataclass(frozen=True)
class NmtConfig:
    """Hyperparameters; defaults follow the paper's primary setting
    (Zhu et al. [71]: H=512, 2 encoder / 2 decoder layers)."""

    src_vocab_size: int = 8000
    tgt_vocab_size: int = 8000
    embed_size: int = 512
    hidden_size: int = 512
    encoder_layers: int = 2
    decoder_layers: int = 2
    src_len: int = 30
    tgt_len: int = 30
    batch_size: int = 64
    dropout: float = 0.0
    backend: Backend = Backend.DEFAULT
    attention: str = "mlp"  # "mlp" | "dot"
    #: paper Section 5.1 — the parallel SequenceReverse fix ("par_rev")
    parallel_reverse: bool = True
    #: hand-annotate the attention scoring function for recomputation (the
    #: precursor EcoRNN workflow); consumed by echo.manual
    manual_recompute_attention: bool = False

    def with_batch_size(self, batch_size: int) -> "NmtConfig":
        return replace(self, batch_size=batch_size)

    def with_backend(self, backend: Backend) -> "NmtConfig":
        return replace(self, backend=backend)

    def __post_init__(self) -> None:
        if self.attention not in ("mlp", "dot"):
            raise ValueError(f"unknown attention type {self.attention!r}")
        if self.hidden_size % 2 != 0:
            raise ValueError("hidden_size must be even (bidirectional encoder)")


@dataclass
class NmtModel:
    config: NmtConfig
    store: ParamStore
    graph: TrainingGraph


def _make_attention(cfg: NmtConfig, store: ParamStore):
    if cfg.attention == "mlp":
        return MlpAttention(store, "attention", cfg.hidden_size,
                            layout=cfg.backend.layout,
                            manual_recompute=cfg.manual_recompute_attention)
    return DotAttention(store, "attention", cfg.hidden_size,
                        layout=cfg.backend.layout)


def _build_encoder_states(
    cfg: NmtConfig, store: ParamStore, src_tokens: Tensor
) -> Tensor:
    """Source tokens [T_src x B] -> encoder states [B x T_src x H]."""
    embedding = WordEmbedding(store, "src_embedding", cfg.src_vocab_size,
                              cfg.embed_size)
    embedded = embedding(src_tokens)
    if cfg.dropout > 0.0:
        embedded = O.dropout(embedded, cfg.dropout, seed=21)
    with scope("rnn"):
        hidden = bidirectional_lstm(
            store, "encoder.l0", embedded, cfg.hidden_size,
            backend=cfg.backend, parallel_reverse=cfg.parallel_reverse,
        )
        for layer in range(1, cfg.encoder_layers):
            hidden, _ = lstm_layer(
                store, f"encoder.l{layer}", hidden, cfg.hidden_size,
                backend=cfg.backend,
            )
    # [T x B x H] -> [B x T x H] for attention
    return O.transpose(hidden, (1, 0, 2))


def _decoder_cells(cfg: NmtConfig, store: ParamStore) -> list[LstmCell]:
    # cuDNN's RNN path only covers whole-sequence layers; the attention
    # decoder is stepwise with input feeding, so the CuDNN variant falls
    # back to framework (unfused) cells there — the reason the paper's
    # CuDNN baseline only gains ~8% on NMT. EcoRNN/Echo's own cell
    # implementation applies everywhere.
    cell_backend = (
        Backend.DEFAULT if cfg.backend is Backend.CUDNN else cfg.backend
    )
    cells = []
    for layer in range(cfg.decoder_layers):
        input_size = (
            cfg.embed_size + cfg.hidden_size if layer == 0 else cfg.hidden_size
        )
        cells.append(
            LstmCell(store, f"decoder.l{layer}", input_size,
                     cfg.hidden_size, backend=cell_backend)
        )
    return cells


def _decoder_step(
    cfg: NmtConfig,
    store: ParamStore,
    cells: list[LstmCell],
    attention,
    att_state,
    emb_t: Tensor,
    att_hidden_prev: Tensor,
    states: list[LstmStates],
) -> tuple[Tensor, list[LstmStates]]:
    """One decoder timestep; returns (attention hidden, new LSTM states)."""
    with scope("rnn"):
        x = O.concat([emb_t, att_hidden_prev], axis=1)
        new_states = []
        for cell, state in zip(cells, states):
            state = cell.step(x, state)
            new_states.append(state)
            x = state.h
    query = new_states[-1].h
    context = attention(query, att_state)
    with scope("attention"):
        w_att = store.get("att_hidden.w", (cfg.hidden_size, 2 * cfg.hidden_size))
        att_hidden = O.tanh(
            O.fully_connected(
                O.concat([query, context], axis=1), w_att,
                layout=cfg.backend.layout,
            )
        )
    return att_hidden, new_states


@pauses_collector
def build_nmt(config: NmtConfig, store: ParamStore | None = None) -> NmtModel:
    """Construct the full training graph (teacher forcing).

    Placeholders: ``src_tokens`` [T_src x B], ``tgt_tokens`` [T_tgt x B]
    (decoder inputs, i.e. gold prefix), ``tgt_labels`` [T_tgt x B]
    (next-token targets, ``-1`` padding).
    """
    store = store or ParamStore()
    cfg = config
    batch = cfg.batch_size

    src_tokens = O.placeholder((cfg.src_len, batch), np.int64, name="src_tokens")
    tgt_tokens = O.placeholder((cfg.tgt_len, batch), np.int64, name="tgt_tokens")
    tgt_labels = O.placeholder((cfg.tgt_len, batch), np.int64, name="tgt_labels")

    encoder_states = _build_encoder_states(cfg, store, src_tokens)

    attention = _make_attention(cfg, store)
    att_state = attention.precompute(encoder_states)

    tgt_embedding = WordEmbedding(store, "tgt_embedding", cfg.tgt_vocab_size,
                                  cfg.embed_size)
    tgt_embedded = tgt_embedding(tgt_tokens)  # [T_tgt x B x E]
    if cfg.dropout > 0.0:
        tgt_embedded = O.dropout(tgt_embedded, cfg.dropout, seed=23)

    cells = _decoder_cells(cfg, store)
    states = [cell.zero_state(batch) for cell in cells]
    att_hidden = O.zeros((batch, cfg.hidden_size))

    step_outputs: list[Tensor] = []
    embedded_steps = unstack_time(tgt_embedded)
    for t in range(cfg.tgt_len):
        emb_t = embedded_steps[t]
        att_hidden, states = _decoder_step(
            cfg, store, cells, attention, att_state, emb_t, att_hidden, states
        )
        step_outputs.append(O.expand_dims(att_hidden, 0))

    decoder_hidden = O.concat(step_outputs, axis=0)  # [T_tgt x B x H]
    if cfg.dropout > 0.0:
        decoder_hidden = O.dropout(decoder_hidden, cfg.dropout, seed=27)

    output = OutputLayer(store, "output", cfg.hidden_size, cfg.tgt_vocab_size,
                         layout=cfg.backend.layout)
    loss = output.loss(decoder_hidden, tgt_labels)

    graph = compile_training(
        loss,
        params=store.tensors,
        placeholders={
            "src_tokens": src_tokens,
            "tgt_tokens": tgt_tokens,
            "tgt_labels": tgt_labels,
        },
    )
    return NmtModel(config=cfg, store=store, graph=graph)


# ---------------------------------------------------------------------------
# Inference graphs for greedy decoding (BLEU evaluation)
# ---------------------------------------------------------------------------


@dataclass
class DecoderStepGraph:
    """Single decoder step as an executable graph (shared parameters)."""

    outputs: list[Tensor]  # [logits, att_hidden, h0, c0, h1, c1, ...]
    placeholder_names: list[str] = field(default_factory=list)


def build_encoder_inference(cfg: NmtConfig, store: ParamStore) -> Tensor:
    """Encoder states [B x T_src x H] for decoding (same parameters)."""
    src_tokens = O.placeholder((cfg.src_len, cfg.batch_size), np.int64,
                               name="infer_src_tokens")
    return _build_encoder_states(cfg, store, src_tokens)


def build_decoder_step(cfg: NmtConfig, store: ParamStore) -> DecoderStepGraph:
    """One greedy-decode step: consumes the previous token and states."""
    batch = cfg.batch_size
    prev_token = O.placeholder((1, batch), np.int64, name="step_prev_token")
    att_hidden_prev = O.placeholder((batch, cfg.hidden_size),
                                    name="step_att_hidden")
    encoder_states = O.placeholder(
        (batch, cfg.src_len, cfg.hidden_size), name="step_encoder_states"
    )

    attention = _make_attention(cfg, store)
    att_state = attention.precompute(encoder_states)

    tgt_embedding = WordEmbedding(store, "tgt_embedding", cfg.tgt_vocab_size,
                                  cfg.embed_size)
    emb = O.reshape(tgt_embedding(prev_token), (batch, cfg.embed_size))

    cells = _decoder_cells(cfg, store)
    states = []
    names = ["step_prev_token", "step_att_hidden", "step_encoder_states"]
    for layer in range(cfg.decoder_layers):
        h = O.placeholder((batch, cfg.hidden_size), name=f"step_h{layer}")
        c = O.placeholder((batch, cfg.hidden_size), name=f"step_c{layer}")
        names += [f"step_h{layer}", f"step_c{layer}"]
        states.append(LstmStates(h=h, c=c))

    att_hidden, new_states = _decoder_step(
        cfg, store, cells, attention, att_state, emb, att_hidden_prev, states
    )
    output = OutputLayer(store, "output", cfg.hidden_size, cfg.tgt_vocab_size,
                         layout=cfg.backend.layout)
    logits = output.logits(O.expand_dims(att_hidden, 0))  # [B x V]

    outputs = [logits, att_hidden]
    for st in new_states:
        outputs += [st.h, st.c]
    return DecoderStepGraph(outputs=outputs, placeholder_names=names)
