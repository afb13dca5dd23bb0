"""Nonlinearities with their gradients, on float64 numpy arrays."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Logistic function 1/(1+e^-x), overflow-safe at both extremes."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # never overflows
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)  # 1/(1+e^-x) or e^x/(1+e^x)
    return out if out.ndim else float(out)


def sigmoid_grad(s):
    """Derivative of sigmoid expressed in its output: s * (1 - s)."""
    return s * (1.0 - s)


def tanh_grad(t):
    """Derivative of tanh expressed in its output: 1 - t^2."""
    return 1.0 - t * t

