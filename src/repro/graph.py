"""Graph primitives shared by HABIT's cell graph and the GTI point graph.

Both frameworks store a directed graph as compressed sparse rows (CSR) over
node indices ``0..n-1``: the out-edges of node ``u`` are the edge positions
``indptr[u]:indptr[u + 1]``. Both snap a query point to the node nearest to
it in projected coordinates.
"""
from __future__ import annotations

import numpy as np


def csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR index of the edges ``src[k] -> dst[k]`` over ``n`` nodes.

    Returns ``(indptr, order)``: ``order`` sorts the edges by source, then
    by destination (a stable sort, so equal edges keep their input order),
    and the out-edges of node ``u`` are ``order[indptr[u]:indptr[u + 1]]``.
    Neighbours are therefore listed in ascending index.
    """
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, order


def nearest(px: np.ndarray, py: np.ndarray, x: float, y: float) -> int:
    """Index of the point ``(px[i], py[i])`` closest to ``(x, y)``; the
    lowest index wins a tie."""
    return int(np.argmin((px - x) ** 2 + (py - y) ** 2))
