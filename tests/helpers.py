"""Shared builders for test instances."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pseudoherm
from pseudoherm import (
    Operator,
    QSeries,
    SplitHamiltonian,
    Tolerance,
    is_hermitian,
    metric_from_series,
)
from pseudoherm.operators import from_pt_frame_columns

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(args, blas_threads=None):
    """`python -m pseudoherm.cli *args` in a fresh process (see run_python)."""
    return run_python(["-m", "pseudoherm.cli", *args], blas_threads)


def run_python(args, blas_threads=None):
    """`python *args` in a fresh process, importing this package.

    The child finds the package the tests imported (an installed copy or the
    source tree) through PYTHONPATH. blas_threads, when given, pins every
    BLAS thread-count variable.
    """
    env = dict(os.environ)
    src = str(Path(pseudoherm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env.update({var: str(blas_threads) for var in BLAS_THREAD_VARS})
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def positive_definite(m, tol=Tolerance()):
    """Reference rule: m is Hermitian and eigvalsh's smallest eigenvalue exceeds tol.abs_tol."""
    return is_hermitian(m, tol) and bool(np.linalg.eigvalsh((m + m.conj().T) / 2)[0] > tol.abs_tol)


def spectrum_is_real(m, tol=Tolerance()):
    """Reference rule on a fresh eigvals of m: |Im E| <= tol.bound(max |E|)."""
    w = np.linalg.eigvals(m)
    return bool(np.abs(w.imag).max() <= tol.bound(np.abs(w).max()))


def herm_exp(q):
    """(e^(-Q), e^(-w)): metric_from_series on the one-term series Q at eps = 1,
    whose summed(1.0) is Q bit for bit; e^(-w) is the eigensystem's lam, w in eigh order."""
    eta = metric_from_series(QSeries((Operator(q),)), 1.0)
    return eta.op, eta.eigensystem[0]


def reference_phases(v):
    """Reference gauge rule: the phase of each column's first entry above 1e-12 of its largest."""
    phases = np.empty(v.shape[1], dtype=complex)
    for n in range(v.shape[1]):
        col = v[:, n]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        phases[n] = col[nz] / abs(col[nz])
    return phases


def formed_vectors(sys):
    """(psi, phi) of a BiorthonormalSystem, formed from its factors W = U Sigma V^H.

    psi = B U Sigma V^H and phi = B U Sigma^-1 V^H, with B = S in the PT
    frame and the identity otherwise, both divided by psi's reference_phases.
    """
    u, sv, vh = sys.factors
    psi, phi = (u * sv) @ vh, (u / sv) @ vh
    if sys.in_frame:
        psi, phi = (from_pt_frame_columns(w) / np.sqrt(2) for w in (psi, phi))
    phases = reference_phases(psi)
    return psi / phases, phi / phases


def random_diagonalizable(dim, rng, cond_cap=100.0, spread=5.0):
    """S diag(real) S^-1 with cond(S) <= cond_cap and separated eigenvalues."""
    while True:
        s = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) + 0.15j * rng.standard_normal(
            (dim, dim)
        )
        if np.linalg.cond(s) <= cond_cap:
            break
    while True:
        eigs = np.sort(rng.uniform(-spread, spread, dim))
        if dim == 1 or np.diff(eigs).min() > 0.1:
            break
    h = s @ np.diag(eigs) @ np.linalg.inv(s)
    return Operator(h), eigs


def toy_2x2(theta=np.pi / 6):
    """Non-Hermitian 2x2 with spectrum {0, 2 cos(theta)} and swap parity."""
    a = np.exp(1j * theta)
    h = np.array([[a, 1.0], [1.0, np.conj(a)]])
    p = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return Operator(h), Operator(p)


def fixed_split(dim, seed, parity=True, h1_scale=0.5):
    """Deterministic parity-structured split with well-separated H0 spectrum.

    Eigenvalue spacing ~1 keeps the Sylvester denominators O(1), so slope
    measurements on the residual curve are not polluted by conditioning.
    """
    rng = np.random.default_rng(seed)
    eigs = np.arange(1.0, dim + 1.0) + rng.uniform(-0.1, 0.1, dim)
    signs = np.ones(dim)
    signs[1::2] = -1.0
    same = (signs[:, None] * signs[None, :]) > 0
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h0 = ((a + a.conj().T) / 2) * same * 0.2 + np.diag(eigs)
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = ((b - b.conj().T) / 2) * (~same) * h1_scale
    if not parity:
        # drop the parity structure but keep the solvability projection
        e, u = np.linalg.eigh(h0)
        h1t = u.conj().T @ h1 @ u
        np.fill_diagonal(h1t, 0.0)
        h1 = u @ h1t @ u.conj().T
        h1 = (h1 - h1.conj().T) / 2
    return SplitHamiltonian(Operator(h0), Operator(h1), 0.1)


def commuting_gauge(split, rng, scale=0.5):
    """Random Hermitian term commuting with H0 (diagonal in its eigenbasis)."""
    _, u = np.linalg.eigh(split.H0.mat)
    d = rng.uniform(-scale, scale, split.dim)
    g = (u * d) @ u.conj().T
    return Operator((g + g.conj().T) / 2)
