"""Optimizers: SGD (+momentum) and Adam, with global-norm gradient clipping.

The optimizer's state-copy count feeds the memory profiler's "Weights"
accounting (the paper folds parameters, gradients, and optimizer state into
one category).
"""

from __future__ import annotations

import math

import numpy as np


class Optimizer:
    """Base class; subclasses implement :meth:`_update_one`."""

    #: extra per-parameter arrays kept (profiler accounting)
    state_copies: float = 0.0
    name: str = "optimizer"

    def __init__(self, learning_rate: float, clip_norm: float | None = None):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self._step = 0

    def update(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
    ) -> float:
        """Apply one update in place; returns the pre-clip gradient norm."""
        self._step += 1
        # np.square widens each element as it squares: the same values as
        # squaring a float64 copy, summed pairwise over the same shape,
        # without materialising the copy
        norm = math.sqrt(
            sum(
                float(np.sum(np.square(g, dtype=np.float64)))
                for g in grads.values()
            )
        )
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
        if scale == 1.0:
            # No clipping in effect: ``grad * 1.0`` would only copy every
            # gradient (bit for bit) before the update reads it.
            for name, grad in grads.items():
                self._update_one(name, params[name], grad)
        else:
            for name, grad in grads.items():
                self._update_one(name, params[name], grad * scale)
        return norm

    def _update_one(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    name = "sgd"

    def __init__(
        self,
        learning_rate: float = 1.0,
        momentum: float = 0.0,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(learning_rate, clip_norm)
        self.momentum = momentum
        self.state_copies = 1.0 if momentum else 0.0
        self.name = "momentum" if momentum else "sgd"
        self._velocity: dict[str, np.ndarray] = {}

    def _update_one(self, name, param, grad):
        if self.momentum:
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(param)
                self._velocity[name] = v
            v *= self.momentum
            v += grad
            grad = v
        param -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam with bias correction."""

    name = "adam"
    state_copies = 2.0

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(learning_rate, clip_norm)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def _update_one(self, name, param, grad):
        m = self._m.get(name)
        if m is None:
            m = self._m[name] = np.zeros_like(param)
        v = self._v.get(name)
        if v is None:
            v = self._v[name] = np.zeros_like(param)
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1 ** self._step)
        v_hat = v / (1 - self.beta2 ** self._step)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
