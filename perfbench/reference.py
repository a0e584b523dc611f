"""A fixed reference kernel that measures how fast the host runs.

On a shared host a vCPU's speed changes by up to 2x from one tenth of a
second to the next, and its average over a run drifts by a quarter or more
from run to run with whatever else the host runs.  The benchmark times this
kernel every ``EVERY_S`` of call time through a run.  The kernel's mean time
over ``REFERENCE_S`` is the host's mean slowdown over the run, and a rate
measured over the run is multiplied by it: the rate the run would reach on
a host where the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code, so no change to the library changes
it.  Its mix follows the library's interpreted hot paths, because a busy
host slows unlike code unequally: small multi-site pure states drawn and
normalised, each site's marginal formed and validated, a cyclic Jacobi sweep
written with scalar Python and numpy row/column updates, three entropies per
marginal, polygon-style margins in Python objects and a JSON record.  Under
load from a second process its time tracks the fuzz loop's within a few per
cent, where a tight pure-Python loop or a LAPACK eigensolve alone lag by
10-20 %.  Memory-bound code, such as composing a 2^10-dimensional network,
hardly slows at all, so that workload is not scaled (``workloads.SCALED``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.011  # the kernel's median time on a 2-vCPU x86 VM in its usual state
EVERY_S = 0.1        # call time between two timings of the kernel

_SHAPES = ((2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2))
_DRAWS = 10


def _jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    for _ in range(10):
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        if float(np.linalg.norm(off)) < 1e-12:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a.item(p, q)
                ab = abs(b)
                if ab <= 1e-15:
                    continue
                u = b / ab
                theta = 0.5 * math.atan2(2.0 * ab, a.item(p, p).real - a.item(q, q).real)
                c, s = math.cos(theta), math.sin(theta)
                su, suc = s * u, s * u.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q]
                a[:, p] = c * col_p + suc * col_q
                a[:, q] = -su * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :]
                a[p, :] = c * row_p + su * row_q
                a[q, :] = -suc * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(a.diagonal().real)


@dataclass(frozen=True)
class _Cut:
    site: int
    von_neumann: float
    renyi2: float
    tsallis2: float


def _cuts(z: np.ndarray) -> list[_Cut]:
    """Entropies of each site's marginal of the pure state ``z``, validated."""
    n = z.ndim
    cuts = []
    for site in range(n):
        rest = tuple(k for k in range(n) if k != site)
        m = z.transpose((site,) + rest).reshape(z.shape[site], -1)
        rho = m @ m.conj().T
        if not np.allclose(rho, rho.conj().T) or not math.isclose(np.trace(rho).real, 1.0):
            raise ValueError("marginal is not a density matrix")
        lam = np.clip(_jacobi_eigenvalues(rho), 0.0, None)
        lam = lam[lam > 1e-15]
        purity = float(np.dot(lam, lam))
        cuts.append(_Cut(site, float(-(lam * np.log2(lam)).sum()),
                         -math.log2(purity), 1.0 - purity))
    return cuts


def interpreter_kernel() -> float:
    """Run the fixed work once; returns a checksum so nothing is optimised away."""
    rng = np.random.default_rng(20220517)
    total = 0.0
    for t in range(_DRAWS):
        shape = _SHAPES[t % len(_SHAPES)]
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        z /= np.linalg.norm(z)
        cuts = _cuts(z)
        margins = {f"{c.site}:{key}": sum(getattr(o, key) for o in cuts if o is not c)
                   - getattr(c, key) for c in cuts for key in ("von_neumann", "renyi2")}
        record = {"draw": t, "margins": margins,
                  "amplitudes": [[c.real, c.imag] for c in z.ravel().tolist()]}
        total += min(margins.values()) + len(json.dumps(record))
    return total
