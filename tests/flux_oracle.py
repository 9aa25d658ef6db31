"""The standard ADM flux through full n x n matrices: an oracle for
`mass._standard_integrand`.

g^{-1} is assembled as an (N, n, n) stack from the Woodbury form of the
deviation, each d_k g as an (N, n, n) stack from the product rule, and the
integrand nu_i g^{jk} (d_k g_ij - d_i g_jk) is contracted one direction k
at a time.  The package applies g^{-1} to vectors only and contracts the
derivative directions with nu and the rank-one vectors first; the two must
agree to rounding.
"""

from typing import Callable

import numpy as np

from umbilic import mass


def assemble(diag: np.ndarray, lefts, rights, n: int) -> np.ndarray:
    """diag I + sum_m lefts[m] rights[m]^T, shape (N, n, n), from one
    stacked (N, n, K) @ (N, K, n) product; diag I alone when K = 0."""
    N = len(diag)
    if lefts:
        out = np.stack(lefts, axis=2) @ np.stack(rights, axis=1)
    else:
        out = np.zeros((N, n, n))
    out.reshape(N, n * n)[:, :: n + 1] += diag[:, None]
    return out


def inverse_metric(n: int, diag: np.ndarray, coefs, vecs) -> np.ndarray:
    """(I + diag I + sum_m coefs[m] vecs[m] vecs[m]^T)^{-1}, shape (N, n, n),
    in closed form for the K <= 2 rank-one terms of a deviation form.

    With alpha = 1 + diag, U = [u_1 .. u_K] and C = diag(c), Woodbury gives
    g^{-1} = (I - U X U^T) / alpha with X = M^{-1} C, M = alpha I + C U^T U:
    Sherman-Morrison for chart y (K = 1), a 2 x 2 solve per node for chart
    z (K = 2), alpha^{-1} I for the fixture (K = 0)."""
    alpha = 1.0 + diag
    K = len(vecs)
    M = [[coefs[a] * np.einsum("pi,pi->p", vecs[a], vecs[b]) + (alpha if a == b else 0.0)
          for b in range(K)] for a in range(K)]
    if K == 1:
        X = [[coefs[0] / M[0][0]]]
    if K == 2:
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        X = [[M[1][1] * coefs[0] / det, -M[0][1] * coefs[1] / det],
             [-M[1][0] * coefs[0] / det, M[0][0] * coefs[1] / det]]
    beta = 1.0 / alpha
    lefts = [-beta[:, None] * sum(X[a][b][:, None] * vecs[a] for a in range(K))
             for b in range(K)]
    return assemble(beta, lefts, vecs, n)


def form_derivatives(diag, coefs, vecs, n: int) -> Callable[[int], np.ndarray]:
    """The function that maps k to d_k (g - I), shape (N, n, n), for a
    deviation form whose derivative parts carry the directions on a
    leading axis (ghat_deviation_form): slice k only is assembled.  By the
    product rule d_k (c u u^T) = q[k] u^T + u q[k]^T, q = c du + (dc/2) u."""
    u = [w.v for w in vecs]
    q = [c.v[..., None] * w.d + 0.5 * c.d[..., None] * w.v for c, w in zip(coefs, vecs)]

    def derivative(k: int) -> np.ndarray:
        qk = [w[k] for w in q]
        return assemble(diag.d[k], qk + u, u + qk, n)

    return derivative


def standard_integrand(source, chart, r: float, nu: np.ndarray) -> np.ndarray:
    """nu_i g^{jk} (d_k g_ij - d_i g_jk) at the points r nu, with g^{-1}
    and every d_k g as full matrices, contracted one k at a time."""
    n = nu.shape[1]
    diag, coefs, vecs = mass._deviation_form(source, chart, r * nu)
    ginv = inverse_metric(n, diag.v, [c.v for c in coefs], [w.v for w in vecs])
    derivative = form_derivatives(diag, coefs, vecs, n)
    vals = np.zeros(len(nu))
    for k in range(n):
        dg = derivative(k)
        vals += np.einsum("pi,pij,pj->p", nu, dg, ginv[:, :, k])
        vals -= nu[:, k] * np.einsum("pjl,pjl->p", ginv, dg)
    return vals
