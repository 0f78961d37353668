"""Tensor representations of product unitary groups and their moment maps.

The target space V is a tensor product of slots; each slot carries one
factor action: the standard representation, its dual (C acts by (C^-1)^t),
conjugation on endomorphisms, or nothing.  Moment maps come out of the
rank-one formula mu(x) = -i x x^dagger summed over slices, with the sign
and transpose flip on dual slots and the commutator form on adjoint slots.

Every slot action is written once, in the slot kernel below, on stacked
(..., D) arrays: a vector of V is the case with no leading axes and a
lattice section field the (N, N) case.

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


@dataclass(frozen=True)
class Slot:
    dim: int
    action: str
    factor: int = -1  # ignored for trivial slots


@dataclass(frozen=True)
class RepSpec:
    """Slot-to-factor assignment describing the action of the product group
    on V = slot_1 (x) ... (x) slot_k."""

    spec: ProductGroupSpec
    slots: tuple

    def __post_init__(self):
        slots = tuple(self.slots)
        for sl in slots:
            if sl.action not in (STANDARD, DUAL, ADJOINT, TRIVIAL):
                raise ValueError(f"unknown slot action {sl.action!r}")
            if sl.action != TRIVIAL:
                n = self.spec.factor_dims[sl.factor]
                want = n * n if sl.action == ADJOINT else n
                if sl.dim != want:
                    raise DimensionMismatchError(sl.factor, want, sl.dim)
        object.__setattr__(self, "slots", slots)

    @property
    def shape(self):
        return tuple(sl.dim for sl in self.slots)

    @property
    def dim(self):
        return int(np.prod(self.shape))

    def factor_slots(self, i):
        return [k for k, sl in enumerate(self.slots) if sl.action != TRIVIAL and sl.factor == i]


# ---------------------------------------------------------------------------
# slot kernel


def _batched_kron(a, b):
    """Kronecker product over the last two axes of (broadcast) stacked matrices."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _matmul(a, b):
    """a @ b; on stacks of tiny matrices einsum beats matmul, on one pair not."""
    return a @ b if a.ndim == b.ndim == 2 else np.einsum("...ij,...jk->...ik", a, b)


def _gram(m):
    return _matmul(m, np.swapaxes(m, -1, -2).conj())


def slot_matrices(blocks, rep: RepSpec, generator=False):
    """One (..., d, d) matrix per slot, None where nothing acts.

    ``blocks[i]`` is a stack of factor-i group elements A (or Lie-algebra
    elements a with ``generator``), or None for a factor that does not act.
    Standard, dual and adjoint slots get A, (A^-1)^t and A (x) (A^-1)^t, or
    a, -a^t and a (x) 1 - 1 (x) a^t; row-major vec(A B A^-1) = (A (x) A^-t) vec(B).
    """
    out = []
    for sl in rep.slots:
        a = None if sl.action == TRIVIAL else blocks[sl.factor]
        if a is None or sl.action == STANDARD:
            out.append(a)
            continue
        dual = -np.swapaxes(a, -1, -2) if generator else np.swapaxes(np.linalg.inv(a), -1, -2)
        if sl.action == DUAL:
            out.append(dual)
        elif generator:
            eye = np.eye(a.shape[-1])
            out.append(_batched_kron(a, eye) + _batched_kron(eye, dual))
        else:
            out.append(_batched_kron(a, dual))
    return out


@functools.lru_cache(maxsize=None)
def _slot_first(k0: int, nslots: int, axis: int):
    """Transpose that moves slot ``axis`` to the front of the slot axes,
    after k0 leading axes (np.moveaxis(t, k0 + axis, k0)), and its inverse."""
    perm = tuple(range(k0)) + (k0 + axis,) + tuple(
        k0 + j for j in range(nslots) if j != axis)
    return perm, tuple(int(k) for k in np.argsort(perm))


def apply_slots(mats, x, rep: RepSpec):
    """Apply one matrix per slot (None: identity) to x of shape (..., D)."""
    x = np.asarray(x, dtype=complex)
    lead = x.shape[:-1]
    k0 = len(lead)
    t = x.reshape(lead + rep.shape)
    for axis, m in enumerate(mats):
        if m is None:
            continue
        perm, inv = _slot_first(k0, len(mats), axis)
        t = t.transpose(perm)
        shp = t.shape
        t = _matmul(m, t.reshape(lead + (shp[k0], -1))).reshape(shp).transpose(inv)
    return t.reshape(x.shape)


def slot_operator(mats, rep: RepSpec, lead=()):
    """Kronecker fold of the slot matrices into one (..., D, D) operator on V."""
    out = np.ones((1, 1), dtype=complex)
    for sl, m in zip(rep.slots, mats):
        out = _batched_kron(out, np.eye(sl.dim) if m is None else m)
    shape = np.broadcast_shapes(out.shape[:-2], tuple(lead)) + out.shape[-2:]
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _one_slot(mats):
    """Each acting slot matrix alone, the other slots set to None."""
    for k, m in enumerate(mats):
        if m is not None:
            yield [m if j == k else None for j in range(len(mats))]


def moment_block(x, rep: RepSpec, i: int):
    """Moment-map block of factor i on x of shape (..., D); zero when
    factor i acts trivially.

    A standard slot contributes -i x x^dagger summed over the other
    indices, a dual slot the same with sign and conjugation flipped, and an
    adjoint slot -i [B, B^dagger].
    """
    x = np.asarray(x, dtype=complex)
    lead = x.shape[:-1]
    k0 = len(lead)
    t = x.reshape(lead + rep.shape)
    n = rep.spec.factor_dims[i]
    out = np.zeros(lead + (n, n), dtype=complex)
    for axis in rep.factor_slots(i):
        sl = rep.slots[axis]
        m = t.transpose(_slot_first(k0, len(rep.slots), axis)[0]).reshape(lead + (sl.dim, -1))
        if sl.action == STANDARD:
            out += -1j * _gram(m)
        elif sl.action == DUAL:
            out += 1j * _gram(m).conj()
        else:
            b = m.reshape(lead + (n, n, -1))
            bh = np.swapaxes(b, k0, k0 + 1).conj()
            out += -1j * (np.einsum("...ijr,...jkr->...ik", b, bh)
                          - np.einsum("...ijr,...jkr->...ik", bh, b))
    return out


def summand_weights(diags, rep: RepSpec):
    """Weights of a diagonal generator on the coordinate summands of V:
    ``diags[i]`` holds the diagonal of factor i; the result has shape
    ``rep.shape``, one weight per slot multi-index.  The generator acts
    slot by slot, so each weight is the sum over the slots of the diagonal
    entries of their ``slot_matrices``."""
    mats = slot_matrices([np.diag(d) for d in diags], rep, generator=True)
    out = np.zeros(rep.shape)
    for axis, m in enumerate(mats):
        if m is not None:
            out += np.diagonal(m).real.reshape(
                tuple(-1 if k == axis else 1 for k in range(len(mats))))
    return out


def _flat_v(x, rep: RepSpec):
    x = np.asarray(x, dtype=complex)
    if x.size != rep.dim:
        raise DimensionMismatchError("V", rep.dim, x.size)
    return x.reshape(-1)


def act(g: GroupElement, x, rep: RepSpec):
    """Group action of g on a vector of V."""
    return apply_slots(slot_matrices(g.blocks, rep), _flat_v(x, rep), rep)


def infinitesimal_act(s: AlgebraElement, x, rep: RepSpec):
    """d/dt act(exp(ts), x) at t = 0; linear in s and x."""
    x = _flat_v(x, rep)
    mats = slot_matrices(s.blocks, rep, generator=True)
    return sum((apply_slots(one, x, rep) for one in _one_slot(mats)),
               np.zeros(rep.dim, dtype=complex))


# ---------------------------------------------------------------------------
# moment maps


def mu_factor(x, rep: RepSpec, factor_i: int):
    """Moment-map block of one factor, summed over the slots it acts on."""
    if not rep.factor_slots(factor_i):
        raise ValueError(f"factor {factor_i} acts trivially on V")
    return moment_block(np.asarray(x, dtype=complex).reshape(-1), rep, factor_i)


def mu_full(x, rep: RepSpec, spec: ProductGroupSpec = None) -> AlgebraElement:
    """Tuple of factor moment maps; zero blocks on factors acting trivially."""
    spec = spec or rep.spec
    x = np.asarray(x, dtype=complex).reshape(-1)
    return AlgebraElement(tuple(moment_block(x, rep, i) for i in range(spec.num_factors)),
                          "compact")


def mu_shifted(x, rep: RepSpec, spec: ProductGroupSpec, setting: SubgroupSetting) -> AlgebraElement:
    """Subgroup moment map pi_h(mu(x)) - c_h: the moment block minus -i c_i I
    on each unfrozen factor, zero on the frozen ones."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    blocks = []
    for i, (n, mode, c) in enumerate(zip(spec.factor_dims, setting.modes,
                                         setting.central_scalars)):
        if mode == FROZEN:
            blocks.append(np.zeros((n, n), complex))
        else:
            blocks.append(moment_block(x, rep, i) - (-1j * c * np.eye(n)))
    return AlgebraElement(tuple(blocks), "compact")


# ---------------------------------------------------------------------------
# Kaehler structure on V


def symplectic_form(a, b) -> float:
    """omega(a, b) = (<a,b> - <b,a>) / (2i) for the pairing <a,b> = 2 vdot(a, b)."""
    return float(2.0 * np.imag(np.vdot(a, b)))
