"""Decision procedure for Lie/Jordan solvability and nilpotency of the skew
and symmetric parts, from the component pattern match and the characteristic,
with cross-validation against the series computation.

The index tables: in characteristic 2 every component must be one of the six
shapes, with per-shape indices E1, E2 -> 1, E3 -> 3, E4 -> 2 (3 with an
infinite emitter), E5/E6 -> 3 (4 with an infinite emitter); otherwise only
E1, E2, E4 are allowed, with indices 0, 1, and 1 (2 with an infinite
emitter).  The overall index of a disjoint union is the maximum over
components, by the direct-sum decomposition of the skew part.  Where direct
computation on materialized spans is known to land one step below the
tabulated infinite-emitter values, the verdict says so in a caveat instead
of silently reconciling either side.
"""

from __future__ import annotations

from typing import Optional

from .graphs import (
    Graph,
    decompose_components,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    is_acyclic,
    match_pattern,
)
from .series import SeriesReport, solvability_probe

INDEX_NOTE = ("index = smallest n with the n-th derived step zero; "
              "a zero skew part has index 0")

_CHAR2_INDEX = {"E1": (1, 1), "E2": (1, 1), "E3": (3, 3), "E4": (2, 3),
                "E5": (3, 4), "E6": (3, 4)}
_CHARN_INDEX = {"E1": (0, 0), "E2": (1, 1), "E4": (1, 2)}


class Verdict:
    def __init__(self, lie_solvable: bool, lie_index: Optional[int], lie_nilpotent: bool,
                 jordan_solvable: str, jordan_nilpotent: str, components: list = None,
                 witnesses: list = None, caveats: list = None):
        self.lie_solvable = lie_solvable
        self.lie_index = lie_index
        self.lie_nilpotent = lie_nilpotent
        self.jordan_solvable = jordan_solvable  # "yes" | "no" | "not-classified"
        self.jordan_nilpotent = jordan_nilpotent  # "yes" | "no"
        self.components = [] if components is None else components  # (component id, Graph, PatternClass)
        self.witnesses = [] if witnesses is None else witnesses
        self.caveats = [] if caveats is None else caveats

    def to_json_obj(self) -> dict:
        return {
            "lie_solvable": "yes" if self.lie_solvable else "no",
            "lie_index": self.lie_index,
            "index_convention_note": INDEX_NOTE,
            "lie_nilpotent": "yes" if self.lie_nilpotent else "no",
            "jordan_solvable": self.jordan_solvable,
            "jordan_nilpotent": self.jordan_nilpotent,
            "components": [
                {"id": cid, "pattern": pat.to_json_obj()} for cid, _, pat in self.components
            ],
            "witnesses": [w.to_json_obj() for w in self.witnesses],
            "caveats": list(self.caveats),
        }


def classify(g: Graph, characteristic: int) -> Verdict:
    """Classify the graph over any field of the given characteristic."""
    comps = decompose_components(g)
    char2 = characteristic == 2
    table = _CHAR2_INDEX if char2 else _CHARN_INDEX
    components = []
    witnesses = []
    caveats = []
    solvable = True
    index = 0
    nilpotent = True
    any_flagged = False
    for k, comp in enumerate(comps):
        pat = match_pattern(comp)
        components.append((f"c{k}", comp, pat))
        kind = pat.kind
        if kind is None or kind not in table:
            solvable = False
            w = find_cycle_with_exit(comp) or find_forbidden_subgraph(comp)
            if w is not None:
                witnesses.append(w)
            elif any(v.infinite_emitter for v in comp.vertices):
                caveats.append(
                    f"component c{k}: an infinite emitter outside a star center implies "
                    "unmaterialized exits; no concrete witness exists in the materialized graph"
                )
            continue
        finite_idx, infinite_idx = table[kind]
        idx = infinite_idx if pat.infinite else finite_idx
        index = max(index, idx)
        if pat.infinite:
            any_flagged = True
        if char2:
            comp_nilpotent = kind in ("E1", "E2")
        else:
            comp_nilpotent = kind in ("E1", "E2") or (kind == "E4" and not pat.infinite)
        nilpotent = nilpotent and comp_nilpotent
    if not solvable:
        index = None
        nilpotent = False
    if not char2:
        if any(pat.kind == "E1" for _, _, pat in components):
            caveats.append(
                "E1 components have zero skew part when the characteristic is not 2; "
                "their index is reported as 0 (tabulations stating 1 count at least one "
                "bracket step)"
            )
        if any(pat.kind == "E3" for _, _, pat in components):
            caveats.append(
                "two-cycle (E3) components are never Lie solvable when the characteristic "
                "is not 2; tabulations assigning row-finite index 2 to graphs containing E3 "
                "are read as typos and not followed"
            )
    if any_flagged and solvable:
        caveats.append(
            "infinite-emitter star components: the tabulated index adds one over the finite "
            "case, but the derived series of the materialized span reproduces the finite-case "
            "value; cross-validation reports the disagreement"
        )
    if char2:
        jordan_solvable = "yes" if solvable else "no"
        jordan_nilpotent = "yes" if nilpotent else "no"
    else:
        jordan_solvable = "not-classified"
        jordan_nilpotent = "no"
        caveats.append("Jordan solvability is not classified when the characteristic is not 2")
    return Verdict(
        lie_solvable=solvable,
        lie_index=index,
        lie_nilpotent=nilpotent,
        jordan_solvable=jordan_solvable,
        jordan_nilpotent=jordan_nilpotent,
        components=components,
        witnesses=witnesses,
        caveats=caveats,
    )


class CrossReport:
    def __init__(self, status: str, verdict: Verdict, probe: SeriesReport, notes: list = None):
        self.status = status  # "AGREE" | "CONSISTENT" | "FAIL"
        self.verdict = verdict
        self.probe = probe
        self.notes = [] if notes is None else notes

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "verdict": self.verdict.to_json_obj(),
            "probe": self.probe.to_json_obj(),
            "notes": list(self.notes),
        }


def cross_validate(g: Graph, fld, mode: str = "auto", weight: int = 6,
                   depth=None, structure: str = "lie") -> CrossReport:
    """Run the classifier and the series probe and compare them.

    Exact mode (acyclic graphs) runs the complete series, whatever the
    depth, and demands equality: the step at which it vanishes must be the
    predicted index, None for a non-solvable verdict, whose series repeats
    nonzero instead.  Truncated mode checks only the sound directions: a
    nonzero step k is a contradiction whenever the predicted index is <= k;
    anything else is consistent evidence.  weight and depth bound truncated
    mode only.  Exact mode on a graph with a cycle raises the probe's
    ``ModeUnavailableError``.
    """
    verdict = classify(g, fld.characteristic)
    if mode == "auto":
        mode = "exact" if is_acyclic(g) else "truncated"
    notes = []
    # No classified Jordan prediction away from characteristic 2: the probe
    # is informational, never a contradiction.
    unclassified = structure == "jordan" and fld.characteristic != 2
    predicted = verdict.lie_index if verdict.lie_solvable and not unclassified else None
    if mode == "truncated" and depth is None:
        depth = predicted + 1 if predicted is not None else 3
    probe = solvability_probe(g, fld, structure, mode, weight=weight, max_depth=depth)
    if unclassified:
        notes.append("Jordan solvability is not classified for this characteristic; "
                     "probe reported without comparison")
        return CrossReport(status="CONSISTENT", verdict=verdict, probe=probe, notes=notes)
    if mode == "exact":
        status = "AGREE" if probe.vanished_at == predicted else "FAIL"
        if predicted is None:
            notes.append(
                "series stabilized nonzero, matching the non-solvable verdict"
                if status == "AGREE" else
                f"exact disagreement: predicted non-solvable, series vanished at "
                f"{probe.vanished_at}"
            )
        elif status == "FAIL":
            notes.append(
                f"exact disagreement: predicted index {predicted}, "
                f"series vanished at {probe.vanished_at} (dims {probe.dims})"
            )
    else:
        if predicted is not None:
            bad = [k for k, d in enumerate(probe.dims) if k >= predicted and d > 0]
            if bad:
                status = "FAIL"
                notes.append(
                    f"nonzero step {bad[0]} contradicts predicted index {predicted} "
                    f"(dims {probe.dims})"
                )
            elif probe.vanished_at == predicted:
                status = "AGREE"
                notes.append(f"observed vanish step equals the predicted index {predicted}")
            else:
                status = "CONSISTENT"
                if probe.vanished_at is not None:
                    notes.append(
                        f"series vanished at {probe.vanished_at} <= predicted index {predicted}"
                    )
        else:
            status = "CONSISTENT"
            deep = len(probe.dims) - 1
            if probe.vanished_at is None and all(d > 0 for d in probe.dims):
                notes.append(f"nonzero evidence through step {deep} supports non-solvability")
            else:
                notes.append(
                    "series vanished under truncation; no contradiction with the "
                    "non-solvable verdict"
                )
    return CrossReport(status=status, verdict=verdict, probe=probe, notes=notes)
