"""Tensor representations of product unitary groups and their moment maps.

The target space V is a tensor product of slots; each slot carries one
factor action: the standard representation, its dual (C acts by (C^-1)^t),
conjugation on endomorphisms, or nothing.  ``AXES`` reads a slot as tensor
axes of V signed +1 (standard), -1 (dual) or 0 (trivial); an adjoint slot,
End(C^n) = C^n (x) (C^n)*, is a standard and a dual axis of one factor.
Moment maps come out of the rank-one formula mu(x) = -i x x^dagger summed
over slices, with the sign and transpose flip on dual axes.

Every action is written once, in the slot kernel below, on stacked
(..., D) arrays: a vector of V is the case with no leading axes and a
lattice section field the (N, N) case.  Its small-matrix helpers (``_matmul``,
``_hermitian_part`` and the one Hermitian spectral kernel ``_spectral_split``)
serve the point and the lattice alike.

The Hermitian pairing on V carries a factor 2 relative to the plain
coordinate inner product; with that normalisation the rank-one moment map
above is exactly the Hamiltonian generator of the unitary flow for the
symplectic form (<a,b> - <b,a>)/(2i).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .groups import (
    FROZEN,
    AlgebraElement,
    DimensionMismatchError,
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
)

STANDARD = "standard"
DUAL = "dual"
ADJOINT = "adjoint"
TRIVIAL = "trivial"

# the sign of each tensor axis of V that a slot of this action spans
AXES = {STANDARD: (1,), DUAL: (-1,), ADJOINT: (1, -1), TRIVIAL: (0,)}


@dataclass(frozen=True)
class Slot:
    dim: int
    action: str
    factor: int = -1  # ignored for trivial slots


@dataclass(frozen=True)
class RepSpec:
    """Slot-to-factor assignment describing the action of the product group
    on V = slot_1 (x) ... (x) slot_k.  Its tensor axes refine the slots in
    row-major order, so the flat coordinates of V are those of the slots."""

    spec: ProductGroupSpec
    slots: tuple

    def __post_init__(self):
        slots = tuple(self.slots)
        for sl in slots:
            if sl.action not in AXES:
                raise ValueError(f"unknown slot action {sl.action!r}")
            if sl.action != TRIVIAL:
                if sl.factor not in range(self.spec.num_factors):
                    raise ValueError(f"slot {sl} points at no factor of {self.spec.factor_dims}")
                want = self.spec.factor_dims[sl.factor] ** len(AXES[sl.action])
                if sl.dim != want:
                    raise DimensionMismatchError(sl.factor, want, sl.dim)
        object.__setattr__(self, "slots", slots)

    @functools.cached_property
    def axes(self):  # (factor, sign) of each tensor axis of V
        return tuple((sl.factor, sign) for sl in self.slots for sign in AXES[sl.action])

    @functools.cached_property
    def shape(self):  # per axis, the rank of its factor or the dim of its trivial slot
        return tuple(sl.dim if sl.action == TRIVIAL else self.spec.factor_dims[sl.factor]
                     for sl in self.slots for _ in AXES[sl.action])

    @functools.cached_property
    def dim(self):
        return int(np.prod(self.shape))

    @functools.cached_property
    def factor_slots(self):  # per factor, the indices of the axes it acts on
        return tuple(tuple(k for k, (f, sign) in enumerate(self.axes) if sign and f == i)
                     for i in range(self.spec.num_factors))


# ---------------------------------------------------------------------------
# slot kernel


def _batched_kron(a, b):
    """Kronecker product over the last two axes of (broadcast) stacked matrices."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _matmul(a, b):
    """a @ b over (broadcast) stacks of small matrices: ``@`` on two plain
    matrices; on stacks, which ``@`` takes matrix by matrix, the sum of outer
    products at an inner dimension of 1 or 2 and einsum above."""
    if a.ndim == b.ndim == 2:
        return a @ b
    inner = a.shape[-1]
    if inner == 1:
        return a * b
    if inner == 2:
        return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
    return np.einsum("...ij,...jk->...ik", a, b)


def _gram(m):
    return _matmul(m, np.swapaxes(m, -1, -2).conj())


def _hermitian_part(x):
    return 0.5 * (x + np.swapaxes(x, -1, -2).conj())


def _pauli(h):
    """Split a stack of Hermitian 2 x 2 matrices as h = a I + b with b
    traceless: returns (a, b, r), where the eigenvalues of h are a ± r."""
    a = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
    b = h - a[..., None, None] * np.eye(2)
    return a, b, np.sqrt(np.abs(b[..., 0, 0]) ** 2 + np.abs(b[..., 0, 1]) ** 2)


def _rebuild(c0, c1, b, r):
    """c0 I + (c1 / r) b over a stack: the function of h = a I + b with
    values c0 ± c1 at the eigenvalues a ± r (c1 must vanish where r does)."""
    c1 = c1 / np.where(r > 0, r, 1.0)
    return c0[..., None, None] * np.eye(2) + c1[..., None, None] * b


def _spectral_split(h):
    """The eigenvalues w, shape (..., r), of a stack of Hermitian matrices,
    and the map that takes values f(w) (any leading axes that broadcast
    against the stack) to f(h).  Rank 1 and rank 2 (h = a I + b, eigenvalues
    a ∓ r) are closed forms; rank >= 3 takes ``eigh``."""
    rank = h.shape[-1]
    if rank == 1:
        return h[..., 0].real, lambda fw: fw[..., None]
    if rank == 2:
        mean, b, rad = _pauli(h)
        return (np.stack((mean - rad, mean + rad), axis=-1),
                lambda fw: _rebuild(0.5 * (fw[..., 1] + fw[..., 0]),
                                    0.5 * (fw[..., 1] - fw[..., 0]), b, rad))
    w, v = np.linalg.eigh(h)
    return w, lambda fw: _matmul(v * fw[..., None, :], np.swapaxes(v, -1, -2).conj())


def _hermitian_function(h, f):
    """f(h) for a stack of Hermitian matrices, f acting on the eigenvalues."""
    w, rebuild = _spectral_split(h)
    return rebuild(f(w))


def slot_matrices(blocks, rep: RepSpec, generator=False):
    """One (..., n, n) matrix per tensor axis of V, None where nothing acts.

    ``blocks[i]`` is a stack of factor-i group elements A (or Lie-algebra
    elements a with ``generator``), or None for a factor that does not act.
    A standard axis gets A (a), a dual axis (A^-1)^t (-a^t); an adjoint slot
    gets both, as row-major vec(A B A^-1) = (A (x) A^-t) vec(B).
    """
    out = []
    for f, sign in rep.axes:
        a = blocks[f] if sign else None
        if a is not None and sign < 0:
            a = -np.swapaxes(a, -1, -2) if generator else np.swapaxes(np.linalg.inv(a), -1, -2)
        out.append(a)
    return out


@functools.lru_cache(maxsize=None)
def _slot_first(k0: int, naxes: int, axis: int):
    """Transpose that moves tensor axis ``axis`` to the front of the axes of V,
    after k0 leading axes (np.moveaxis(t, k0 + axis, k0)), and its inverse."""
    perm = tuple(range(k0)) + (k0 + axis,) + tuple(
        k0 + j for j in range(naxes) if j != axis)
    return perm, tuple(int(k) for k in np.argsort(perm))


def apply_slots(mats, x, rep: RepSpec):
    """Apply one matrix per tensor axis (None: identity) to x of shape (..., D)."""
    x = np.asarray(x, dtype=complex)
    lead = x.shape[:-1]
    k0 = len(lead)
    t = x.reshape(lead + rep.shape)
    for axis, m in enumerate(mats):
        if m is None:
            continue
        perm, inv = _slot_first(k0, len(mats), axis)
        t = t.transpose(perm) if axis else t  # axis 0 is already in front
        shp = t.shape
        t = _matmul(m, t.reshape(lead + (shp[k0], -1))).reshape(shp)
        t = t.transpose(inv) if axis else t
    return t.reshape(x.shape)


def slot_operator(mats, rep: RepSpec, lead=()):
    """Kronecker fold of the axis matrices into one (..., D, D) operator on V."""
    out = np.ones((1, 1), dtype=complex)
    for d, m in zip(rep.shape, mats):
        out = _batched_kron(out, np.eye(d) if m is None else m)
    shape = np.broadcast_shapes(out.shape[:-2], tuple(lead)) + out.shape[-2:]
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _one_axis(mats):
    """Each acting axis matrix alone, the other axes set to None."""
    for k, m in enumerate(mats):
        if m is not None:
            yield [m if j == k else None for j in range(len(mats))]


def moment_block(x, rep: RepSpec, i: int):
    """Moment-map block of factor i on x of shape (..., D); zero when
    factor i acts trivially.

    A standard axis contributes -i x x^dagger summed over the other
    indices, a dual axis the same with sign and conjugation flipped; the
    two axes of an adjoint slot add up to -i [B, B^dagger].
    """
    x = np.asarray(x, dtype=complex)
    lead = x.shape[:-1]
    k0 = len(lead)
    t = x.reshape(lead + rep.shape)
    n = rep.spec.factor_dims[i]
    out = np.zeros(lead + (n, n), dtype=complex)
    for axis in rep.factor_slots[i]:
        m = t.transpose(_slot_first(k0, len(rep.axes), axis)[0]) if axis else t
        gram = _gram(m.reshape(lead + (n, -1)))
        out += -1j * gram if rep.axes[axis][1] > 0 else 1j * gram.conj()
    return out


def shifted_moment_blocks(x, rep: RepSpec, setting: SubgroupSetting):
    """The shifted moment map mu_f(x) - c_f = mu_f(x) + i c_f I of each
    unfrozen factor f on x of shape (..., D), as a dict f -> (..., n_f, n_f)."""
    return {i: moment_block(x, rep, i) + 1j * c * np.eye(rep.spec.factor_dims[i])
            for i, (mode, c) in enumerate(zip(setting.modes, setting.central_scalars))
            if mode != FROZEN}


def summand_weights(diags, rep: RepSpec):
    """Weights of a diagonal generator on the coordinate summands of V:
    ``diags[i]`` holds the diagonal of factor i; the result has shape
    ``rep.shape``, one weight per axis multi-index.  The generator acts
    axis by axis, so each weight is the signed sum over the axes of their
    factor's diagonal entries."""
    out = np.zeros(rep.shape)
    for axis, (f, sign) in enumerate(rep.axes):
        if sign:
            out += sign * np.real(diags[f]).reshape(
                tuple(-1 if k == axis else 1 for k in range(len(rep.axes))))
    return out


def _flat_v(x, rep: RepSpec):
    x = np.ravel(x)
    if x.size != rep.dim:
        raise DimensionMismatchError("V", rep.dim, x.size)
    return x


def act(g: GroupElement, x, rep: RepSpec):
    """Group action of g on a vector of V."""
    return apply_slots(slot_matrices(g.blocks, rep), _flat_v(x, rep), rep)


def infinitesimal_act(s: AlgebraElement, x, rep: RepSpec):
    """d/dt act(exp(ts), x) at t = 0; linear in s and x."""
    x = _flat_v(x, rep)
    mats = slot_matrices(s.blocks, rep, generator=True)
    return sum((apply_slots(one, x, rep) for one in _one_axis(mats)),
               np.zeros(rep.dim, dtype=complex))


# ---------------------------------------------------------------------------
# moment maps


def mu_factor(x, rep: RepSpec, factor_i: int):
    """Moment-map block of one factor, summed over the axes it acts on."""
    if not rep.factor_slots[factor_i]:
        raise ValueError(f"factor {factor_i} acts trivially on V")
    return moment_block(np.asarray(x, dtype=complex).reshape(-1), rep, factor_i)


def mu_full(x, rep: RepSpec, spec: ProductGroupSpec = None) -> AlgebraElement:
    """Tuple of factor moment maps; zero blocks on factors acting trivially."""
    spec = spec or rep.spec
    x = np.asarray(x, dtype=complex).reshape(-1)
    return AlgebraElement(tuple(moment_block(x, rep, i) for i in range(spec.num_factors)),
                          "compact")


def mu_shifted(x, rep: RepSpec, spec: ProductGroupSpec, setting: SubgroupSetting) -> AlgebraElement:
    """Subgroup moment map pi_h(mu(x)) - c_h: the ``shifted_moment_blocks``
    of the unfrozen factors, zero on the frozen ones."""
    shifted = shifted_moment_blocks(np.asarray(x, dtype=complex).reshape(-1), rep, setting)
    return AlgebraElement(tuple(shifted.get(i, np.zeros((n, n), complex))
                                for i, n in enumerate(spec.factor_dims)), "compact")


# ---------------------------------------------------------------------------
# Kaehler structure on V


def symplectic_form(a, b) -> float:
    """omega(a, b) = (<a,b> - <b,a>) / (2i) for the pairing <a,b> = 2 vdot(a, b)."""
    return float(2.0 * np.imag(np.vdot(a, b)))
