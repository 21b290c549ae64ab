"""Output checks shared by the workloads. Each check is a (label, ok, detail) triple."""

from typing import NamedTuple


class Check(NamedTuple):
    label: str
    ok: bool
    detail: str


def close(label, got, want, rel=1e-8, abs_tol=1e-12) -> Check:
    ok = got is not None and abs(got - want) <= rel * abs(want) + abs_tol
    return Check(label, ok, f"{got!r} vs {want!r}")


def all_close(label, got, want, rel=1e-8, abs_tol=1e-12) -> Check:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return Check(label, False, f"{len(got)} values vs {len(want)}")
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if not abs(g - w) <= rel * abs(w) + abs_tol]
    return Check(label, not bad, f"mismatch at {bad}" if bad else "")


def energy_close(label, energy, kkt_gap, ref) -> Check:
    """Energies agree within both runs' certified suboptimality (kkt_gap).

    The gap bounds how far each energy lies above the optimum, so a solver
    that converges further is not flagged.
    """
    slack = kkt_gap + ref["kkt_gap"] + 1e-12 * max(1.0, abs(ref["energy"]))
    return Check(label, abs(energy - ref["energy"]) <= slack,
                 f"|{energy!r} - {ref['energy']!r}| vs gap slack {slack:.3g}")
