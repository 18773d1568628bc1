"""Every generated input, from one ``numpy.random.Generator`` tree.

``--seed`` is the root of a :class:`numpy.random.SeedSequence`; each kind
of input draws from its own named child, so adding a consumer never
shifts what another one sees. The program under test receives only what
these functions return.
"""

from __future__ import annotations

import numpy as np

from . import spec

_ROLES = ("params", "batches", "requests", "arrivals", "serve_train",
          "key_batches")


class SeedTree:
    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        children = np.random.SeedSequence(self.seed).spawn(len(_ROLES))
        self._children = dict(zip(_ROLES, children))

    def generator(self, role: str) -> np.random.Generator:
        return np.random.default_rng(self._children[role])

    def param_seed(self) -> int:
        """Integer for ``ParamStore.initialize(seed=...)``."""
        return int(self._children["params"].generate_state(1)[0])


def _tokens(rng: np.random.Generator, vocab: int, shape) -> np.ndarray:
    # ids 0..2 are PAD/BOS/EOS
    return rng.integers(3, vocab, size=shape, dtype=np.int64)


def nmt_batches(tree: SeedTree, cfg: dict, buckets, per_bucket: int,
                role: str = "batches") -> dict:
    """``{(src_len, tgt_len): [feeds, ...]}`` for the bucketed trainer."""
    rng = tree.generator(role)
    batch = cfg["batch_size"]
    out = {}
    for src_len, tgt_len in buckets:
        out[(src_len, tgt_len)] = [
            {
                "src_tokens": _tokens(rng, cfg["src_vocab_size"],
                                      (src_len, batch)),
                "tgt_tokens": _tokens(rng, cfg["tgt_vocab_size"],
                                      (tgt_len, batch)),
                "tgt_labels": _tokens(rng, cfg["tgt_vocab_size"],
                                      (tgt_len, batch)),
            }
            for _ in range(per_bucket)
        ]
    return out


def lm_batches(tree: SeedTree, cfg: dict, count: int,
               batch_size: int | None = None) -> list[dict]:
    rng = tree.generator("batches")
    shape = (cfg["seq_len"], batch_size or cfg["batch_size"])
    return [
        {"tokens": _tokens(rng, cfg["vocab_size"], shape),
         "labels": _tokens(rng, cfg["vocab_size"], shape)}
        for _ in range(count)
    ]


def request_pool(tree: SeedTree) -> list[tuple]:
    """One pool of ``(kind, tokens, targets)``; kind is "translate"/"score".

    Stratified: every length carries the same 21 + 7 requests, so only the
    token values and the order depend on the seed.
    """
    rng = tree.generator("requests")
    vocab = spec.NMT_SERVE["src_vocab_size"]
    pool = []
    for length in spec.SERVE_LENGTHS:
        for _ in range(spec.SERVE_TRANSLATE_PER_LENGTH):
            pool.append(("translate", _tokens(rng, vocab, length).tolist(),
                         None))
        for _ in range(spec.SERVE_SCORE_PER_LENGTH):
            pool.append(("score", _tokens(rng, vocab, length).tolist(),
                         _tokens(rng, vocab, length).tolist()))
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


def round_order(rng: np.random.Generator, pool_size: int, pools: int
                ) -> list[int]:
    """Indices into the pool for one round: ``pools`` fresh permutations."""
    return [int(i) for _ in range(pools) for i in rng.permutation(pool_size)]


def key_batches(tree: SeedTree, buckets) -> list[tuple]:
    """One full batch per (kind, bucket): ``(kind, bucket, [requests])``.

    Lengths are pinned to the bucket's source length so the work of a
    batch does not depend on the seed.
    """
    rng = tree.generator("key_batches")
    vocab = spec.NMT_SERVE["src_vocab_size"]
    out = []
    for src_len, tgt_len in buckets:
        for kind in ("translate", "score"):
            rows = []
            for _ in range(spec.SERVE_MAX_BATCH):
                tokens = _tokens(rng, vocab, src_len).tolist()
                targets = (_tokens(rng, vocab, src_len).tolist()
                           if kind == "score" else None)
                rows.append((kind, tokens, targets))
            out.append((kind, (src_len, tgt_len), rows))
    return out
