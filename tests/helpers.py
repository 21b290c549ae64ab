"""Shared generators and independent oracles for the test suite."""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import cyclicity
from cyclicity import solver
from cyclicity.freespace import FreePolynomial, words
from cyclicity.poly import Polynomial, compositions, multi_indices


def random_polynomial(rng, d, degree, real=False, density=1.0):
    coeffs = {}
    for alpha in multi_indices(d, degree):
        if density < 1.0 and rng.random() > density:
            continue
        c = rng.standard_normal()
        if not real:
            c = c + 1j * rng.standard_normal()
        coeffs[alpha] = c
    p = Polynomial(d, coeffs)
    return p + 1.0 if p.is_zero else p


def random_free_polynomial(rng, d, max_length, density=1.0):
    coeffs = {}
    for w in words(d, max_length):
        if density < 1.0 and rng.random() > density:
            continue
        coeffs[w] = rng.standard_normal() + 1j * rng.standard_normal()
    p = FreePolynomial(d, coeffs)
    return p + 1.0 if p.is_zero else p


def invert_by_key_walk(p, length):
    """Reference for `invert_power_series`: the same recursion walked over
    every key of each degree in canonical order, each key summing p[u] q[v]
    over the terms u of p with a key v of q that u*v equals."""
    if isinstance(p, FreePolynomial):
        def keys_of_length(k):
            return itertools.product(range(1, p.d + 1), repeat=k)

        def remainder(word, prefix):
            return word[len(prefix):] if word[: len(prefix)] == prefix else None
    else:
        def keys_of_length(k):
            return compositions(k, p.d)

        def remainder(alpha, beta):
            rest = tuple(a - b for a, b in zip(alpha, beta))
            return rest if min(rest) >= 0 else None
    inv0 = 1.0 / p.constant_term
    out = {p._unit(): inv0}
    lower = {u: c for u, c in p.coeffs.items() if 0 < p._length(u) <= length}
    for k in range(1, length + 1):
        for key in keys_of_length(k):
            acc = 0j
            for u, pu in lower.items():
                qv = out.get(remainder(key, u))  # None is never a key
                if qv is not None:
                    acc += pu * qv
            if acc != 0:
                out[key] = -inv0 * acc
    return type(p)(p.d, out)


def sample_row_contraction_by_letter(d, size, rho, seed):
    """Reference for `sample_row_contraction`: one real and one imaginary
    Gaussian block drawn per letter, in a loop, then the row scaled to rho."""
    rng = np.random.default_rng(seed)
    blocks = [
        (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        / math.sqrt(2.0)
        for _ in range(d)
    ]
    if rho == 0:
        return tuple(np.zeros((size, size), dtype=complex) for _ in range(d))
    scale = rho / np.linalg.svd(np.hstack(blocks), compute_uv=False)[0]
    return tuple(b * scale for b in blocks)


SRC = str(Path(cyclicity.__file__).resolve().parents[1])


def subprocess_env():
    """The environment with the package's source directory on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def solves_of(module, call):
    """(design, target, outcome) of every solve that `call` makes through `module`."""
    seen = []
    real = solver.solve_least_squares

    def spy(design, target):
        out = real(design, target)
        seen.append((design, target, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_least_squares", spy)
        result = call()
    return result, seen


def normal_solves_of(module, call):
    """(design, target, outcome) of every solve that `call` makes through
    `module.solve_normal_equations`; design and target are the dense
    least-squares problem that the solve's fallback would build."""
    seen = []
    real = solver.solve_normal_equations

    def spy(gram, rhs, problem):
        out = real(gram, rhs, problem)
        seen.append((*problem(), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_normal_equations", spy)
        result = call()
    return result, seen


def design_entries(design):
    """A dense or CSC design as (ndarray, count of its stored entries)."""
    if isinstance(design, np.ndarray):
        return design, np.count_nonzero(design)
    return design.toarray(), design.nnz


def coeff_distance(p, q):
    keys = set(p.coeffs) | set(q.coeffs)
    return max(
        (abs(p.coeffs.get(k, 0) - q.coeffs.get(k, 0)) for k in keys), default=0.0
    )


def brute_force_residual(spec, g, f, n, span=2.0, step=1.0):
    """Independent oracle for subspace_distance with real f, g.

    Evaluates ||g - phi f||^2 by polynomial arithmetic and the space norm
    (no Gram matrix, no factorization) on a coarse real coefficient grid,
    then takes one Newton step from central finite differences. The
    objective is an exact quadratic in the coefficients, so central
    differences carry no truncation error at any step size and the Newton
    step lands on the global minimizer.
    """
    cols = multi_indices(spec.d, n)
    k = len(cols)

    def phi_from(x):
        return Polynomial(spec.d, {gamma: x[i] for i, gamma in enumerate(cols)})

    def objective(x):
        diff = g - phi_from(x) * f
        return spec.norm(diff) ** 2

    grid = np.arange(-span, span + step / 2, step)
    best_x = np.zeros(k)
    best_val = objective(best_x)
    for point in np.stack(np.meshgrid(*([grid] * k)), axis=-1).reshape(-1, k):
        val = objective(point)
        if val < best_val:
            best_val, best_x = val, point.copy()

    h = 1.0
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h
        grad[i] = (objective(best_x + ei) - objective(best_x - ei)) / (2 * h)
        hess[i, i] = (
            objective(best_x + ei) - 2 * best_val + objective(best_x - ei)
        ) / h**2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h
            mixed = (
                objective(best_x + ei + ej)
                - objective(best_x + ei - ej)
                - objective(best_x - ei + ej)
                + objective(best_x - ei - ej)
            ) / (4 * h**2)
            hess[i, j] = hess[j, i] = mixed
    minimizer = best_x - np.linalg.solve(hess, grad)
    return float(np.sqrt(max(objective(minimizer), 0.0)))
