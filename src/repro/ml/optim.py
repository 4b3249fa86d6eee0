"""Optimisers for the autograd engine."""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor


class Adam:
    """AdamW-style optimiser (decoupled weight decay)."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float | None = 1.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def _clip(self) -> None:
        if self.grad_clip is None:
            return
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += float(np.sum(param.grad**2))
        norm = np.sqrt(total)
        if norm > self.grad_clip:
            scale = self.grad_clip / (norm + 1e-12)
            for param in self.params:
                if param.grad is not None:
                    param.grad *= scale

    def step(self) -> None:
        self._clip()
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for i, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            if self.weight_decay:
                param.data *= 1.0 - self.lr * self.weight_decay
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
