"""Independent numerical oracles for the test suite.

Everything here but `randers_spray` is deliberately jet-free:
Richardson-extrapolated central finite differences, the classical
index-gymnastics formulas and closed forms on floats, so the jet engine and
the tensor code are checked against arithmetic that shares no code path with
them.  `randers_spray`
evaluates a closed form on jets: it shares the jet kernel with the library,
and none of its expression, linear-solve or spray code.
"""

import itertools

import numpy as np


def fd_partial(f, x, i, h=1e-3):
    """Richardson-extrapolated central difference df/dx_i at x."""
    x = np.asarray(x, dtype=float)

    def shift(s):
        z = x.copy()
        z[i] += s
        return f(z)

    return (8.0 * (shift(h) - shift(-h)) - (shift(2 * h) - shift(-2 * h))) / (12.0 * h)


def fd_gradient(f, x, h=1e-3):
    return np.array([fd_partial(f, x, i, h) for i in range(len(x))])


def fd_second(f, x, i, j, h=1e-3):
    """Mixed second partial via nested Richardson differences."""
    return fd_partial(lambda z: fd_partial(f, z, j, h), x, i, h)


def christoffel(metric, x, h=1e-4):
    """Levi-Civita Christoffel symbols of a metric callable g(x) -> (n, n)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    g = metric(x)
    dg = np.empty((n, n, n))  # dg[i, j, k] = d g_ij / dx^k
    for k in range(n):
        dg[:, :, k] = fd_partial(metric, x, k, h)
    ginv = np.linalg.inv(g)
    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for l in range(n):
                    acc += ginv[i, l] * (dg[l, j, k] + dg[l, k, j] - dg[j, k, l])
                gamma[i, j, k] = 0.5 * acc
    return gamma


def riemann_classical(metric, x, h=1e-3):
    """Classical curvature R^i_{j kl} = d_k Gamma^i_jl - d_l Gamma^i_jk
    + Gamma^i_ks Gamma^s_jl - Gamma^s_jk Gamma^i_ls, from finite differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    gamma = christoffel(metric, x)
    dgamma = np.empty((n, n, n, n))  # dgamma[i, j, l, k] = d Gamma^i_jl / dx^k
    for k in range(n):
        dgamma[:, :, :, k] = fd_partial(lambda z: christoffel(metric, z), x, k, h)
    R = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = dgamma[i, j, l, k] - dgamma[i, j, k, l]
                    for s in range(n):
                        acc += (gamma[i, k, s] * gamma[s, j, l]
                                - gamma[s, j, k] * gamma[i, l, s])
                    R[i, j, k, l] = acc
    return R


def spray_riemann_fd(coeff, x, y, h=1e-4):
    """Two-index spray curvature from finite differences of the coefficients.

    coeff(x, y) -> array of n values.  Implements
    R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
            - dG^i/dy^j dG^j/dy^k
    entirely with difference quotients.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    z0 = np.concatenate([x, y])

    def f(z):
        return np.asarray(coeff(z[:n], z[n:]), dtype=float)

    G = f(z0)
    dG = np.empty((n, 2 * n))
    for a in range(2 * n):
        dG[:, a] = fd_partial(f, z0, a, h)
    d2 = np.empty((n, 2 * n, n))  # d2[:, a, k] = d2 G / dz_a dy_k
    for a in range(2 * n):
        for k in range(n):
            d2[:, a, k] = fd_second(f, z0, a, n + k, h)
    R = np.empty((n, n))
    for i in range(n):
        for k in range(n):
            acc = 2.0 * dG[i, k]
            for j in range(n):
                acc -= y[j] * d2[i, j, k]
                acc += 2.0 * G[j] * d2[i, n + j, k]
                acc -= dG[i, n + j] * dG[j, n + k]
            R[i, k] = acc
    return R


def projectively_flat_riemann(P, P_x, P_y, P_xy, y):
    """R^i_k of the projectively flat spray G^i = P y^i, in closed form from
    P and its partials at one point (floats):

        R^i_k = Xi delta^i_k + tau_k y^i,   Xi = P^2 - P_{x^m} y^m,
        tau_k = 3 (P_{x^k} - P P_{.k}) + Xi_{.k},

    with Xi_{.k} = 2 P P_{.k} - P_{x^m y^k} y^m - P_{x^k}.  P_x and P_y are
    the gradients in x and in y, P_xy[m, k] the partial in x^m and y^k.
    """
    P_x, P_y, P_xy, y = (np.asarray(v, dtype=float) for v in (P_x, P_y, P_xy, y))
    xi = P * P - P_x @ y
    xi_y = 2.0 * P * P_y - y @ P_xy - P_x
    tau = 3.0 * (P_x - P * P_y) + xi_y
    return xi * np.eye(len(y)) + np.outer(y, tau)


def leibniz_partial(f_jet, g_jet, alpha):
    """d^alpha (f g) by the general Leibniz rule over sub-multi-indices."""
    from itertools import product
    from math import comb
    ranges = [range(a + 1) for a in alpha]
    total = 0.0
    for beta in product(*ranges):
        coeff = 1.0
        for a, b in zip(alpha, beta):
            coeff *= comb(a, b)
        rest = tuple(a - b for a, b in zip(alpha, beta))
        total += coeff * f_jet.partial(beta) * g_jet.partial(rest)
    return total


def _det(m):
    """Determinant by cofactor expansion along the first row (any carrier)."""
    if len(m) == 1:
        return m[0][0]
    out = 0.0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def _inverse(m):
    """Inverse by the adjugate: (m^-1)_ij = (-1)^(i+j) det(m without row j,
    column i) / det(m)."""
    n, det = len(m), _det(m)
    return [[(-1.0) ** (i + j)
             * _det([row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j])
             / det for j in range(n)] for i in range(n)]


def randers_spray(a, b, xs, ys):
    """Geodesic coefficients of the Randers norm F = alpha + beta in closed form,

        G^i = G^i_alpha + (e_00 / (2F) - s_0) y^i + alpha s^i_0,

    with alpha = sqrt(a_ij y^i y^j), beta = b_i y^i, the Levi-Civita
    connection Gamma of a, b_i|j = d_j b_i - b_m Gamma^m_ij, r_ij and s_ij its
    symmetric and skew parts, s^i_j = a^ih s_hj, s_j = b^i s_ij and
    e_00 = r_00 + 2 beta s_0 (an index 0 is a contraction with y).

    `a(xs)` and `b(xs)` give a_ij and b_i as nested lists of jets (or
    numbers, for constant entries) through jet arithmetic; their
    x-derivatives are read by `.d(k)`.  `xs`, `ys` are the coordinate jets of
    one lift, and the result has one order less than the lift.
    """
    n = len(xs)
    pairs = list(itertools.product(range(n), repeat=2))
    av, bv = a(xs), b(xs)
    dav = [[[av[i][j].d(k) if hasattr(av[i][j], "d") else 0.0 for k in range(n)]
            for j in range(n)] for i in range(n)]
    dbv = [[bv[i].d(k) if hasattr(bv[i], "d") else 0.0 for k in range(n)]
           for i in range(n)]
    ainv = _inverse(av)
    gamma = [[[sum((0.5 * ainv[i][l] * (dav[l][j][k] + dav[l][k][j] - dav[j][k][l])
                    for l in range(n)), 0.0) for k in range(n)] for j in range(n)]
             for i in range(n)]
    bcov = [[dbv[i][j] - sum((bv[m] * gamma[m][i][j] for m in range(n)), 0.0)
             for j in range(n)] for i in range(n)]
    r = [[0.5 * (bcov[i][j] + bcov[j][i]) for j in range(n)] for i in range(n)]
    s = [[0.5 * (bcov[i][j] - bcov[j][i]) for j in range(n)] for i in range(n)]
    s_up = [[sum((ainv[i][h] * s[h][j] for h in range(n)), 0.0) for j in range(n)]
            for i in range(n)]
    b_up = [sum((ainv[i][h] * bv[h] for h in range(n)), 0.0) for i in range(n)]
    s_low = [sum((b_up[i] * s[i][j] for i in range(n)), 0.0) for j in range(n)]
    alpha = sum((av[i][j] * ys[i] * ys[j] for i, j in pairs), 0.0).sqrt()
    beta = sum((bv[i] * ys[i] for i in range(n)), 0.0)
    s_0 = sum((s_low[j] * ys[j] for j in range(n)), 0.0)
    e_00 = sum((r[i][j] * ys[i] * ys[j] for i, j in pairs), 0.0) + 2.0 * beta * s_0
    scale = e_00 / (2.0 * (alpha + beta)) - s_0
    return [sum((0.5 * gamma[i][j][k] * ys[j] * ys[k] for j, k in pairs), 0.0)
            + scale * ys[i]
            + alpha * sum((s_up[i][j] * ys[j] for j in range(n)), 0.0)
            for i in range(n)]
