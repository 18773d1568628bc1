"""Beam-search decoding for the NMT model.

Follows the standard toolkit construction (Sockeye/OpenNMT): the beam is
folded into the batch dimension, so one decoder-step graph of batch
``B * beam_size`` serves the whole search; states are re-gathered by
parent beam after every step. Scores are accumulated token log-probs with
optional length normalization; ``beam_size=1`` reduces exactly to greedy
search (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.models.nmt import (
    NmtConfig,
    build_decoder_step,
    build_encoder_inference,
)
from repro.nn import ParamStore
from repro.ops.softmax import log_softmax_array
from repro.runtime import GraphExecutor

_NEG_INF = np.float32(-1e30)


@dataclass(frozen=True)
class BeamHypothesis:
    """One finished (or forcibly terminated) candidate translation."""

    tokens: list[int]
    log_prob: float

    def normalized_score(self, alpha: float) -> float:
        """GNMT length normalization: logP / ((5+len)/(5+1))^alpha."""
        length = max(len(self.tokens), 1)
        penalty = ((5.0 + length) / 6.0) ** alpha
        return self.log_prob / penalty


class BeamSearchDecoder:
    """Batched beam search over a trained NMT parameter set."""

    def __init__(
        self,
        config: NmtConfig,
        store: ParamStore,
        beam_size: int = 5,
        length_penalty: float = 1.0,
        bos: int = 1,
        eos: int = 2,
        arena: Any | None = None,
        plan_cache: Any | None = None,
    ) -> None:
        if beam_size < 1:
            raise ValueError("beam_size must be at least 1")
        self.config = config
        self.beam_size = beam_size
        self.length_penalty = length_penalty
        self.bos = bos
        self.eos = eos
        exec_kwargs = dict(arena=arena, plan_cache=plan_cache)
        self._encoder = GraphExecutor(
            [build_encoder_inference(config, store)], **exec_kwargs
        )
        self._encoder.compile()
        step_config = replace(
            config, batch_size=config.batch_size * beam_size
        )
        self._step = GraphExecutor(
            build_decoder_step(step_config, store).outputs, **exec_kwargs
        )
        self._step.compile()

    def translate(
        self,
        src_tokens: np.ndarray,
        params: dict[str, np.ndarray],
        max_len: int | None = None,
    ) -> list[list[int]]:
        """Best hypothesis per sentence (EOS-trimmed token lists)."""
        hypotheses = self.translate_n_best(src_tokens, params, max_len)
        return [beams[0].tokens for beams in hypotheses]

    def translate_n_best(
        self,
        src_tokens: np.ndarray,
        params: dict[str, np.ndarray],
        max_len: int | None = None,
    ) -> list[list[BeamHypothesis]]:
        """All surviving hypotheses per sentence, best first."""
        cfg, beam = self.config, self.beam_size
        batch = cfg.batch_size
        rows = batch * beam
        max_len = max_len or cfg.tgt_len

        enc = self._encoder.run(
            {"infer_src_tokens": src_tokens}, params
        ).outputs[0]
        enc = np.repeat(enc, beam, axis=0)  # [B*K x T x H]

        att_hidden = np.zeros((rows, cfg.hidden_size), np.float32)
        states = [
            (np.zeros((rows, cfg.hidden_size), np.float32),
             np.zeros((rows, cfg.hidden_size), np.float32))
            for _ in range(cfg.decoder_layers)
        ]
        tokens = np.full((1, rows), self.bos, np.int64)
        # Only beam 0 of each sentence is alive initially (others would
        # duplicate it); dead beams carry -inf scores.
        scores = np.full((batch, beam), _NEG_INF, np.float32)
        scores[:, 0] = 0.0
        finished = np.zeros((batch, beam), bool)
        sequences: list[list[list[int]]] = [
            [[] for _ in range(beam)] for _ in range(batch)
        ]

        for _ in range(max_len):
            feeds = {
                "step_prev_token": tokens,
                "step_att_hidden": att_hidden,
                "step_encoder_states": enc,
            }
            for layer, (h, c) in enumerate(states):
                feeds[f"step_h{layer}"] = h
                feeds[f"step_c{layer}"] = c
            out = self._step.run(feeds, params).outputs
            logits, att_hidden = out[0], out[1]
            states = [
                (out[2 + 2 * i], out[3 + 2 * i])
                for i in range(cfg.decoder_layers)
            ]
            log_probs = log_softmax_array(logits).reshape(batch, beam, -1)
            vocab = log_probs.shape[-1]

            # Finished beams may only "extend" with EOS at zero cost.
            log_probs[finished] = _NEG_INF
            log_probs[finished, self.eos] = 0.0

            candidate = scores[:, :, None] + log_probs  # [B x K x V]
            flat = candidate.reshape(batch, beam * vocab)
            top = np.argpartition(flat, -beam, axis=1)[:, -beam:]
            # Order the winners best-first for determinism.
            order = np.argsort(-np.take_along_axis(flat, top, axis=1), axis=1)
            top = np.take_along_axis(top, order, axis=1)

            parents = top // vocab  # [B x K]
            words = top % vocab
            scores = np.take_along_axis(flat, top, axis=1)

            # Re-gather beam state by parent.
            gather = (np.arange(batch)[:, None] * beam + parents).reshape(-1)
            att_hidden = att_hidden[gather]
            states = [(h[gather], c[gather]) for h, c in states]
            enc = enc  # identical rows per sentence; no gather needed

            new_finished = np.zeros_like(finished)
            new_sequences: list[list[list[int]]] = [
                [None] * beam for _ in range(batch)
            ]
            for b in range(batch):
                for k in range(beam):
                    parent = int(parents[b, k])
                    word = int(words[b, k])
                    seq = list(sequences[b][parent])
                    was_finished = finished[b, parent]
                    if was_finished or word == self.eos:
                        new_finished[b, k] = True
                    else:
                        seq.append(word)
                    new_sequences[b][k] = seq
            sequences = new_sequences
            finished = new_finished
            if finished.all():
                break
            tokens = words.reshape(1, rows).astype(np.int64)

        results: list[list[BeamHypothesis]] = []
        for b in range(batch):
            beams = [
                BeamHypothesis(tokens=sequences[b][k],
                               log_prob=float(scores[b, k]))
                for k in range(beam)
            ]
            beams.sort(
                key=lambda h: -h.normalized_score(self.length_penalty)
            )
            results.append(beams)
        return results
