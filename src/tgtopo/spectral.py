"""Normalized Laplacian spectra and density-of-states histograms.

Eigenvalues come from numpy's LAPACK ``eigvalsh``.  Normalized-Laplacian
eigenvalues pile up exactly on bin edges (the spike at 1 above all), where
round-off of a few ulps would decide the bin; ``dos_histogram`` therefore
snaps eigenvalues to a 1e-9 grid before binning, so histograms do not depend
on the solver's round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SpectralError(ValueError):
    pass


class EmptyWindowError(SpectralError):
    pass


class EmptySpectrumError(SpectralError):
    pass


class BinMismatchError(SpectralError):
    pass


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric matrix; symmetrized on construction."""

    order: int
    array: np.ndarray

    @staticmethod
    def from_dense(a) -> "SymMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpectralError(f"expected square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SpectralError("matrix entries must be finite")
        sym = 0.5 * (a + a.T)
        sym.flags.writeable = False
        return SymMatrix(a.shape[0], sym)


@dataclass(frozen=True)
class DosHistogram:
    """Normalized eigenvalue histogram over [0, 2]; all-zero when flagged empty."""

    bin_edges: tuple
    mass: tuple
    empty: bool = False

    @property
    def bin_count(self) -> int:
        return len(self.mass)


def normalized_laplacian(win) -> SymMatrix:
    """L = I - D^(-1/2) A D^(-1/2) on the window's deduplicated simple edges."""
    n = win.num_nodes
    if n == 0:
        raise EmptyWindowError("cannot build a Laplacian for an empty window")
    a = np.zeros((n, n), dtype=np.float64)
    for i, j in win.local_edges():
        a[i, j] = 1.0
        a[j, i] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)  # window nodes are edge endpoints: deg >= 1
    lap = np.eye(n) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    return SymMatrix.from_dense(lap)


def eigenvalues_sym(m: SymMatrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``).

    Raises ``numpy.linalg.LinAlgError`` if LAPACK fails to converge.
    """
    return np.linalg.eigvalsh(m.array)


def dos_histogram(eigs, bin_count: int = 4, slack: float = 1e-6) -> DosHistogram:
    """Equal-width normalized histogram of eigenvalues over [0, 2].

    Bins are half-open except the last, which is closed on the right.
    Eigenvalues are snapped to a 1e-9 grid first, so one within round-off of
    an interior edge lands in the upper bin.  They are then clamped into
    [0, 2]; values beyond ``slack`` outside the interval indicate a broken
    Laplacian and raise.
    """
    edges = tuple(2.0 * j / bin_count for j in range(bin_count + 1))
    eigs = np.asarray(list(eigs), dtype=np.float64)
    if eigs.size == 0:
        return DosHistogram(edges, (0.0,) * bin_count, empty=True)
    if eigs.min() < -slack or eigs.max() > 2.0 + slack:
        raise SpectralError(
            f"eigenvalues outside [0,2] by more than {slack}: "
            f"range [{eigs.min()}, {eigs.max()}]"
        )
    clamped = np.clip(np.round(eigs, 9), 0.0, 2.0)
    idx = np.minimum((clamped / (2.0 / bin_count)).astype(int), bin_count - 1)
    counts = np.bincount(idx, minlength=bin_count).astype(np.float64)
    mass = counts / eigs.size
    return DosHistogram(edges, tuple(mass.tolist()), empty=False)


def wasserstein1_hist(a: DosHistogram, b: DosHistogram) -> float:
    """1-D optimal transport between two histograms on the same bins."""
    if a.bin_edges != b.bin_edges:
        raise BinMismatchError("histograms use different bin edges")
    width = a.bin_edges[1] - a.bin_edges[0]
    cdf_a = np.cumsum(a.mass)
    cdf_b = np.cumsum(b.mass)
    return float(np.abs(cdf_a - cdf_b).sum() * width)


def spectral_descriptor(win, bin_count: int = 4) -> DosHistogram:
    """DoS histogram of a window's normalized Laplacian; empty windows get
    the flagged all-zero sentinel so token streams keep a fixed length."""
    if win.num_nodes == 0:
        edges = tuple(2.0 * j / bin_count for j in range(bin_count + 1))
        return DosHistogram(edges, (0.0,) * bin_count, empty=True)
    eigs = eigenvalues_sym(normalized_laplacian(win))
    return dos_histogram(eigs, bin_count)
