"""Normalized Laplacian spectra and density-of-states histograms.

Eigenvalues come from numpy's LAPACK ``eigvalsh``.  Normalized-Laplacian
eigenvalues pile up exactly on bin edges (the spike at 1 above all), where
round-off of a few ulps would decide the bin; ``dos_histogram`` therefore
snaps eigenvalues to a 1e-9 grid before binning, so histograms do not depend
on the solver's round-off.  Normalized Laplacians are built from pairs: degrees
by ``bincount``, -(inv_i * inv_j) at (i, j) and (j, i), 1 on the diagonal.  As A
holds only 0 and 1, that equals ``I - inv * A * inv`` byte for byte and is exactly
symmetric, so it needs no symmetrizing pass.  ``spectral_descriptors``
stacks a graph's windows of equal node count (``temporal.stack_windows``)
into one ``eigvalsh`` call, whose results equal per-window calls byte for
byte, and bins every window's eigenvalues with one ``bincount``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_int

SLACK = 1e-6  # eigenvalues this far outside [0, 2] mean a broken Laplacian
TABLE_SIZES = 64  # the largest size whose table ``_size_cached`` keeps: campaign windows, bins


class SpectralError(InputError):
    pass


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric matrix; ``normalized_laplacian`` builds it exactly so."""

    order: int
    array: np.ndarray


@dataclass(frozen=True)
class DosHistogram:
    """Normalized eigenvalue histogram over [0, 2]; all-zero when flagged empty."""

    bin_edges: tuple
    mass: tuple
    empty: bool = False


def _size_cached(build):
    """``build(size)``, read-only and kept in a bounded cache for sizes up to TABLE_SIZES; a
    larger size is built on every call, so no size that a caller chooses grows the cache."""
    @functools.lru_cache(TABLE_SIZES + 1)
    def cached(size):
        table = build(size)
        table.flags.writeable = False
        return table
    @functools.wraps(build)
    def table(size):
        return cached(size) if size <= TABLE_SIZES else build(size)
    table.cache_info = cached.cache_info
    return table


@_size_cached
def _bin_edges(bin_count):  # the B - 1 interior edges 2j/B of B equal bins on [0, 2]
    return 2.0 * np.arange(1, bin_count) / bin_count


def _laplacians(g, n, w, i, j) -> np.ndarray:
    """(g, n, n) normalized Laplacians of g graphs on n vertices, each pair (w, i, j) given once."""
    a, b = w * n + i, w * n + j
    deg = np.bincount(a, minlength=g * n) + np.bincount(b, minlength=g * n)
    if not deg.all():  # cut windows hold edge endpoints only
        raise SpectralError("window has a node without edges")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.zeros((g, n, n))
    flat = lap.reshape(-1)  # A is 0/1: L[i, j] = L[j, i] = -(inv_i * inv_j) on a pair, else +0.0
    flat[a * n + j] = flat[b * n + i] = -(inv_sqrt[a] * inv_sqrt[b])
    lap.reshape(g, -1)[:, ::n + 1] = 1.0
    return lap


def normalized_laplacian(win) -> SymMatrix:
    """L = I - D^(-1/2) A D^(-1/2) on the window's deduplicated simple edges."""
    n = win.num_nodes
    if n == 0:
        raise SpectralError("cannot build a Laplacian for an empty window")
    lap = _laplacians(1, n, 0, *win.local_edges().T)[0]
    lap.flags.writeable = False
    return SymMatrix(n, lap)


def eigenvalues_sym(m: SymMatrix) -> np.ndarray:
    """All eigenvalues, ascending, of a symmetric matrix or a stack of them (``eigvalsh``).

    Raises ``numpy.linalg.LinAlgError`` if LAPACK fails to converge.
    """
    return np.linalg.eigvalsh(m.array)


def _masses(eigs, owner, sizes, bin_count) -> np.ndarray:
    """(len(sizes), bin_count) masses of spectra of ``sizes`` eigenvalues each, ``eigs[x]``
    in spectrum ``owner[x]`` (the two broadcast together), binned as ``dos_histogram`` says."""
    if eigs.size and (eigs.min() < -SLACK or eigs.max() > 2.0 + SLACK):
        raise SpectralError(
            f"eigenvalues outside [0,2] by more than {SLACK}: "
            f"range [{eigs.min()}, {eigs.max()}]"
        )
    # a bin's index is the number of interior edges at or below the value
    idx = np.searchsorted(_bin_edges(bin_count), np.round(eigs, 9), "right")  # no edge is 0 or 2
    counts = np.bincount((owner * bin_count + idx).ravel(), minlength=len(sizes) * bin_count)
    return counts.reshape(-1, bin_count) / np.maximum(sizes, 1)[:, None]


def dos_histogram(eigs, bin_count: int = 4) -> DosHistogram:
    """Equal-width normalized histogram of eigenvalues over [0, 2].

    Bins are half-open except the last, which is closed on the right.
    Eigenvalues are snapped to a 1e-9 grid first, so one within round-off of
    an interior edge lands in the upper bin.  They are then clamped into
    [0, 2]; values beyond ``SLACK`` outside the interval indicate a broken
    Laplacian and raise, as does a ``bin_count`` that is not an integer >= 1.
    """
    check_int(bin_count, 1, "bin_count", SpectralError)
    edges = tuple(2.0 * j / bin_count for j in range(bin_count + 1))
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.size == 0:
        return DosHistogram(edges, (0.0,) * bin_count, empty=True)
    mass = _masses(eigs, 0, np.array([eigs.size]), bin_count)
    return DosHistogram(edges, tuple(mass[0].tolist()), empty=False)


def spectral_descriptors(stack, bin_count: int = 4):
    """(W, bin_count) DoS masses and W empty flags of ``temporal.stack_windows``
    windows: one eigensolve per group, then all eigenvalues binned at once.
    Empty windows get all-zero rows so token streams keep a fixed length."""
    counts, groups = stack
    eigs, owner = [np.zeros(0)], [np.zeros(0, np.int64)]
    for n, ids, w, i, j in groups:
        eigs.append(eigenvalues_sym(SymMatrix(n, _laplacians(len(ids), n, w, i, j))).ravel())
        owner.append(np.repeat(ids, n))
    sizes = counts[:, 0]
    return (_masses(np.concatenate(eigs), np.concatenate(owner), sizes, bin_count),
            sizes == 0)


def _w1(mass_a, mass_b) -> float:
    """W1 between two mass rows on equal bins spanning [0, 2]: the L1 gap of their CDFs."""
    return float(np.abs(np.cumsum(mass_a) - np.cumsum(mass_b)).sum() * (2.0 / len(mass_a)))


def spectral_descriptor(win, bin_count: int = 4) -> DosHistogram:
    """DoS histogram of a window's normalized Laplacian; empty windows get
    the flagged all-zero sentinel so token streams keep a fixed length."""
    if win.num_nodes == 0:
        return dos_histogram((), bin_count)
    eigs = eigenvalues_sym(normalized_laplacian(win))
    return dos_histogram(eigs, bin_count)
