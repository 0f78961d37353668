"""State snapshots, trajectory CSVs and deterministic report files.

Snapshot container: a single ``.npz`` with header string "GPWB1"; field
names and layouts are documented in docs/snapshot_format.md.  Reports are
key=value text with sorted keys and LF endings so byte identity across
runs and worker counts is meaningful.
"""
from __future__ import annotations

import numpy as np

from .groups import ProductGroupSpec, SubgroupSetting
from .lattice import (TWO_PI, LatticeBundle, LatticePairState, TorusLattice, lattice_degree,
                      require_unitary)
from .reps import RepSpec, Slot

SNAPSHOT_HEADER = "GPWB1"
CSV_HEADER = "iteration,l2_residual,linf_residual,sup_log_metric"


def save_state(path, state: LatticePairState):
    """Write a GPWB1 snapshot: lattice size, per-factor mode/rank/degree
    data, link arrays (direction-major, row-major site order), the section
    array and the metric exponent arrays."""
    payload = {
        "header": np.array(SNAPSHOT_HEADER),
        "lattice_n": np.array(state.lattice.n),
        "kind": np.array(state.kind),
        "num_factors": np.array(len(state.bundles)),
        "central_scalars": np.array(state.setting.central_scalars),
        "modes": np.array(state.setting.modes),
        "slot_dims": np.array([sl.dim for sl in state.rep.slots], dtype=np.int64),
        "slot_actions": np.array([sl.action for sl in state.rep.slots], dtype=str),
        "slot_factors": np.array([sl.factor for sl in state.rep.slots], dtype=np.int64),
        "section": state.section,
    }
    for i, b in enumerate(state.bundles):
        payload[f"links_{i}"] = b.links
        payload[f"degrees_{i}"] = np.array(b.summand_degrees)
        if i in state.u:
            payload[f"metric_exp_{i}"] = state.u[i]
    np.savez(path, **payload)


def load_state(path) -> LatticePairState:
    """Read a GPWB1 snapshot; ``ValueError`` on another header, on an array
    that needs pickle (unpickling a file can run arbitrary code), on link
    fields that are not unitary (the lattice inverts links by their
    adjoint), on parts that disagree (``LatticePairState`` checks the
    shapes of the links, the section and the metric exponents against
    ``lattice_n``, the slots and the modes) or on a ``degrees_i`` without one
    entry per summand or with 2 pi * sum off ``lattice_degree`` by > 1e-6.
    The ``params`` and ``construction_residual`` entries of an older
    snapshot are ignored."""
    with np.load(path, allow_pickle=False) as npz:
        z = {key: npz[key] for key in npz.files}  # an object array raises here
    header = str(z["header"])
    if header != SNAPSHOT_HEADER:
        raise ValueError(f"not a {SNAPSHOT_HEADER} snapshot (header {header!r})")
    nf = int(z["num_factors"])
    bundles = []
    for i in range(nf):
        links = z[f"links_{i}"]
        require_unitary(links, f"snapshot links_{i}")
        bundles.append(LatticeBundle(links, tuple(int(d) for d in z[f"degrees_{i}"])))
    spec = ProductGroupSpec(tuple(b.links.shape[-1] for b in bundles))
    slots = tuple(Slot(int(d), str(a), int(f)) for d, a, f in
                  zip(z["slot_dims"], z["slot_actions"], z["slot_factors"]))
    setting = SubgroupSetting(spec, tuple(str(m) for m in z["modes"]),
                              tuple(float(c) for c in z["central_scalars"]))
    u = {i: z[f"metric_exp_{i}"] for i in range(nf) if f"metric_exp_{i}" in z}
    state = LatticePairState(TorusLattice(int(z["lattice_n"])), RepSpec(spec, slots), setting,
                             bundles, z["section"], str(z["kind"]), u)
    for i, b in enumerate(bundles):
        degrees, rank, linked = b.summand_degrees, b.links.shape[-1], lattice_degree(b.links)
        if len(degrees) != rank or abs(TWO_PI * sum(degrees) - linked) > 1e-6:
            raise ValueError(f"snapshot degrees_{i} {list(degrees)} do not fit links_{i} of rank "
                             f"{rank} and degree 2 pi * {linked / TWO_PI:.6g}")
    return state


def format_float(x) -> str:
    """Full round-trip precision decimal formatting."""
    return repr(float(x))


def emit_csv(trajectory, path):
    """One row per accepted step; header fixed; LF endings; repr floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for it, l2, linf, slm in trajectory:
            f.write(f"{int(it)},{format_float(l2)},{format_float(linf)},{format_float(slm)}\n")


def parse_csv(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = []
        for line in f:
            it, a, b, c = line.strip().split(",")
            rows.append((int(it), float(a), float(b), float(c)))
    return rows


def _render(value, prefix, lines):
    if isinstance(value, dict):
        for k in sorted(value):
            _render(value[k], f"{prefix}.{k}" if prefix else str(k), lines)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _render(v, f"{prefix}[{i}]", lines)
    elif isinstance(value, float):
        lines.append(f"{prefix} = {format_float(value)}")
    elif isinstance(value, (bool, int, str)) or value is None:
        lines.append(f"{prefix} = {value}")
    else:
        lines.append(f"{prefix} = {value!r}")


def write_report(path, payload: dict):
    """Deterministic key=value report; no timing data belongs in here."""
    lines = []
    _render(payload, "", lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
