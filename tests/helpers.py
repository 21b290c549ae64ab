"""Shared generators and independent oracles for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import cyclicity
from cyclicity import solver
from cyclicity.freespace import FreePolynomial, words
from cyclicity.poly import Polynomial, multi_indices


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
