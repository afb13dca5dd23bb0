"""Nonlinearities with their gradients, on float64 numpy arrays, and
``mapped_zeros``, the one allocator of the arrays that may be large and
mostly untouched: the embedding gradient and the optimizer slots."""

from __future__ import annotations

import mmap

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


def mapped_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros in private anonymous pages of their own: a page takes memory
    only once written, and every page goes back to the system with the
    array. ``np.zeros`` keeps neither promise for a large array. Once glibc
    has freed a block that size, it serves the next from its heap and zeroes
    every page, so how much of the array is resident depends on what the
    process allocated before. (A shared mapping, ``mmap``'s default, would
    take memory for every page read as well.)"""
    if not hasattr(mmap, "MAP_PRIVATE"):  # Windows: no private anonymous maps
        return np.zeros(shape, dtype)
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    pages = mmap.mmap(-1, max(size * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype, size).reshape(shape)
