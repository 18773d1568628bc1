"""Greedy decoding and sequence scoring for the NMT model.

Builds the encoder-inference graph and a single decoder-step graph once
(sharing the training parameters through the model's :class:`ParamStore`),
then unrolls decoding in numpy — the way real toolkits run inference.
The encoder runs once per decode; the decoder-step plan binds its weights
once per decode (``GraphExecutor.bind``), so each step of the loop
validates only its feeds.

Both entry points are *batched* and row-independent: every kernel in the
inference graphs (GEMMs, LSTM gates, attention softmax, argmax) computes
each batch row from that row's inputs alone, so row ``b`` of a batch-``B``
run is bitwise-identical to the same request decoded in any other batch of
the same shape. The serving layer (:mod:`repro.serve`) leans on exactly
this property to coalesce concurrent requests into micro-batches without
changing anyone's answer.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.models.nmt import (
    NmtConfig,
    build_decoder_step,
    build_encoder_inference,
)
from repro.nn import ParamStore
from repro.ops.softmax import log_softmax_array
from repro.runtime import GraphExecutor


def decode_length(max_len: int | None, default: int) -> int:
    """The step budget of a decode: ``max_len``, or ``default`` when it is
    None. Zero decodes nothing; a negative length is refused."""
    if max_len is None:
        return default
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    return max_len


class GreedyDecoder:
    """Greedy (argmax) decoder over a trained NMT parameter set.

    ``arena``/``plan_cache`` plumb straight into the underlying
    :class:`GraphExecutor`\\ s so callers (the serving layer's per-bucket
    sessions, chiefly) can share one arena and one thread-safe plan cache
    across many decoders.
    """

    def __init__(self, config: NmtConfig, store: ParamStore,
                 bos: int = 1, eos: int = 2,
                 arena: Any | None = None,
                 plan_cache: Any | None = None) -> None:
        self.config = config
        self.bos = bos
        self.eos = eos
        exec_kwargs = dict(arena=arena, plan_cache=plan_cache)
        self._encoder = GraphExecutor(
            [build_encoder_inference(config, store)], **exec_kwargs
        )
        self._encoder.compile()
        step = build_decoder_step(config, store)
        self._step = GraphExecutor(step.outputs, **exec_kwargs)
        self._step.compile()

    def _run_encoder(self, src_tokens: np.ndarray,
                     params: dict[str, np.ndarray]) -> np.ndarray:
        return self._encoder.run(
            {"infer_src_tokens": src_tokens}, params
        ).outputs[0]

    def _initial_state(self):
        cfg = self.config
        batch = cfg.batch_size
        att_hidden = np.zeros((batch, cfg.hidden_size), np.float32)
        states = [
            (np.zeros((batch, cfg.hidden_size), np.float32),
             np.zeros((batch, cfg.hidden_size), np.float32))
            for _ in range(cfg.decoder_layers)
        ]
        return att_hidden, states

    def _run_step(self, tokens, att_hidden, states, enc_states, bound):
        """One decoder step; ``bound`` is the step plan's weights, bound
        once per decode (``self._step.bind(params)``)."""
        feeds = {
            "step_prev_token": tokens,
            "step_att_hidden": att_hidden,
            "step_encoder_states": enc_states,
        }
        for layer, (h, c) in enumerate(states):
            feeds[f"step_h{layer}"] = h
            feeds[f"step_c{layer}"] = c
        result = self._step.run(feeds, bound).outputs
        logits, att_hidden = result[0], result[1]
        states = [
            (result[2 + 2 * i], result[3 + 2 * i])
            for i in range(self.config.decoder_layers)
        ]
        return logits, att_hidden, states

    def translate(
        self,
        src_tokens: np.ndarray,
        params: dict[str, np.ndarray],
        max_len: int | None = None,
    ) -> list[list[int]]:
        """``src_tokens`` is [T_src x B]; returns token lists (EOS-trimmed)
        of at most ``max_len`` tokens (default ``config.tgt_len``)."""
        cfg = self.config
        batch = cfg.batch_size
        max_len = decode_length(max_len, cfg.tgt_len)

        enc_states = self._run_encoder(src_tokens, params)
        bound = self._step.bind(params)
        att_hidden, states = self._initial_state()
        tokens = np.full((1, batch), self.bos, np.int64)
        finished = np.zeros(batch, bool)
        outputs: list[list[int]] = [[] for _ in range(batch)]

        for _ in range(max_len):
            logits, att_hidden, states = self._run_step(
                tokens, att_hidden, states, enc_states, bound
            )
            next_tokens = np.argmax(logits, axis=1)
            for b in range(batch):
                if finished[b]:
                    continue
                token = int(next_tokens[b])
                if token == self.eos:
                    finished[b] = True
                else:
                    outputs[b].append(token)
            if finished.all():
                break
            tokens = next_tokens.reshape(1, batch).astype(np.int64)
        return outputs

    def score(
        self,
        src_tokens: np.ndarray,
        targets: Sequence[Sequence[int]],
        params: dict[str, np.ndarray],
    ) -> np.ndarray:
        """Teacher-forced log-probability of each target sequence.

        ``targets[b]`` is row ``b``'s token list (without BOS/EOS); the
        returned float64 array [B] accumulates ``log P(token)`` for every
        target token plus the terminating EOS. Row totals touch only that
        row's log-probs, so scores are batch-composition independent —
        the property the serving layer's SCORE request kind relies on.
        """
        cfg = self.config
        batch = cfg.batch_size
        if len(targets) != batch:
            raise ValueError(
                f"expected {batch} target rows, got {len(targets)}"
            )

        enc_states = self._run_encoder(src_tokens, params)
        bound = self._step.bind(params)
        att_hidden, states = self._initial_state()
        prev = np.full((1, batch), self.bos, np.int64)
        totals = np.zeros(batch)
        done = np.zeros(batch, bool)
        max_steps = max((len(t) for t in targets), default=0) + 1

        for t in range(max_steps):
            logits, att_hidden, states = self._run_step(
                prev, att_hidden, states, enc_states, bound
            )
            logp = log_softmax_array(logits)
            nxt = np.full(batch, self.eos, np.int64)
            for b in range(batch):
                if done[b]:
                    continue
                target = (
                    int(targets[b][t]) if t < len(targets[b]) else self.eos
                )
                totals[b] += logp[b, target]
                if target == self.eos or t >= len(targets[b]):
                    done[b] = True
                nxt[b] = target
            if done.all():
                break
            prev = nxt.reshape(1, batch)
        return totals
