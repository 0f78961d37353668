"""Chain enumeration and the brute-force reference of the stability tests.

``stability_test`` evaluates single subspaces only; the reference walks
every chain, so that it checks that reduction instead of repeating it.
"""
import numpy as np

from gpwb.kempf_ness import WeightedFiltration, default_subspace_lattice, total_weight


def nested_chains(subspaces, dim_full):
    """All strictly increasing chains of the supplied subspaces, each chain
    closed off with the full space."""
    full = np.eye(dim_full, dtype=complex)
    items = []
    seen_proj = []
    for q in subspaces:
        q = np.asarray(q, dtype=complex)
        if q.ndim != 2 or q.shape[1] == 0 or q.shape[1] >= dim_full:
            continue
        p = q @ q.conj().T
        if any(np.linalg.norm(p - p0) < 1e-10 for p0 in seen_proj):
            continue
        seen_proj.append(p)
        items.append(q)
    items.sort(key=lambda q: q.shape[1])

    def contains(big, small):
        proj = big @ (big.conj().T @ small)
        return np.linalg.norm(proj - small) < 1e-10

    out = []

    def grow(prefix, start):
        out.append(prefix + [full])
        for k in range(start, len(items)):
            if not prefix or (
                items[k].shape[1] > prefix[-1].shape[1] and contains(items[k], prefix[-1])
            ):
                grow(prefix + [items[k]], k + 1)

    grow([], 0)
    return out


def brute_force_stable(x, rep, spec, setting, rng, n_grid, n_rand):
    """Stability by a dense alpha-grid walk over every chain of the candidate
    subspaces of factor 0 and ``n_rand`` random ones: the least direct total
    weight over the grid's strictly increasing, nonzero weight vectors (each
    rounded to 9 digits) is positive."""
    n = spec.factor_dims[0]
    subs = list(default_subspace_lattice(x, rep, 0))
    for _ in range(n_rand):
        k = int(rng.integers(1, n))
        q = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
        subs.append(q[:, :k])
    c = setting.central_shift
    worst = np.inf
    grid = np.linspace(-2, 2, n_grid)
    for chain in nested_chains(subs, n):
        r = len(chain)
        for alpha in np.stack(np.meshgrid(*([grid] * r)), axis=-1).reshape(-1, r):
            alpha = np.round(alpha, 9)
            if np.any(np.diff(alpha) <= 1e-12) or np.linalg.norm(alpha) < 1e-9:
                continue
            filt = WeightedFiltration(0, tuple(chain), tuple(alpha))
            worst = min(worst, total_weight(x, filt, c, rep))
    return worst > 0
