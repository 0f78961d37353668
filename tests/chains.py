"""Chain enumeration for the brute-force references of the stability tests.

``stability_test`` evaluates single subspaces only; the references walk
every chain, so that they check that reduction instead of repeating it.
"""
import numpy as np


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
