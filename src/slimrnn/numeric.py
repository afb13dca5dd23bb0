"""Nonlinearities with their gradients, and strict-shape tensor operations.

Values are float64 numpy arrays. The binary ops below check shapes exactly
and raise ShapeError on mismatch.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def sigmoid(x):
    """Logistic function 1/(1+e^-x), overflow-safe at both extremes."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # never overflows
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)  # 1/(1+e^-x) or e^x/(1+e^x)
    return out if out.ndim else float(out)


def sigmoid_grad(s):
    """Derivative of sigmoid expressed in its output: s * (1 - s)."""
    return s * (1.0 - s)


def tanh_act(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.tanh(x)
    return out if out.ndim else float(out)


def tanh_grad(t):
    """Derivative of tanh expressed in its output: 1 - t^2."""
    return 1.0 - t * t


def require_same_shape(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with exact conformance checking."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec: matrix {m.shape} incompatible with vector {v.shape}")
    return m @ v


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    require_same_shape(a, b, "hadamard")
    return a * b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    require_same_shape(a, b, "add")
    return a + b


def scale(a: np.ndarray, s: float) -> np.ndarray:
    return a * float(s)


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Raise NumericError if x contains NaN or Inf."""
    from .errors import NumericError

    if not np.all(np.isfinite(x)):
        raise NumericError(f"{what} contains non-finite values")
    return x
