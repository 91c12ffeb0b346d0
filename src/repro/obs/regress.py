"""Exact regression comparison of two benchmark artifacts.

``--compare`` and ``--identity`` both call :func:`compare`.  The
simulation is deterministic, so results are judged exactly: every
leaf of ``strip_volatile(artifact)["experiments"]`` (numbers, strings,
part types, sweep ``x`` values and keys) must be equal, NaN equal to
NaN, and each difference is a regression named by its path
(``fig2.storage_cpu[x=450].kernel_cores``, ``a4.persistence.speedup``).
Provenance is a record, not a result; the report header prints both
artifacts' ``src_sha256``.

``--compare`` also budgets real time: each experiment's
``wall_clock_s`` at most 2x + 1 s of the baseline's, the suite's
``total_wall_clock_s`` at most 1.5x + 2 s (one-sided), and the
real-time ``perf`` numbers warn-only past 2x + 1 (their structure is
still exact).  ``--identity`` skips the budgets: its inputs
(``--jobs 1`` vs ``--jobs 4``, or two hosts) differ in real time by
design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .artifact import VOLATILE_EXPERIMENTS, _is_number, strip_volatile

__all__ = [
    "Delta",
    "ComparisonReport",
    "AttributionShift",
    "attribution_shifts",
    "compare",
    "render_comparison",
    "render_attribution_shifts",
]

WARN, REGRESSION = "warn", "regression"

#: Keys that only hold structure; paths skip them, so
#: ``a4.parts.persistence.values.speedup`` reads ``a4.persistence.speedup``.
_STRUCTURAL_KEYS = ("parts", "rows", "values")


@dataclass
class Delta:
    """One value that differs between the two artifacts."""

    path: str
    baseline: Any                # None when missing from the baseline
    candidate: Any               # None when missing from the candidate
    status: str                  # warn / regression
    note: str = ""

    @property
    def rel_change(self) -> float:
        """Relative change of a numeric value; NaN for anything else."""
        if not (_is_number(self.baseline)
                and _is_number(self.candidate)):
            return math.nan
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else math.inf
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class ComparisonReport:
    """Everything :func:`compare` found."""

    deltas: List[Delta] = field(default_factory=list)
    compared: int = 0            # result leaves walked
    baseline_src: Optional[str] = None
    candidate_src: Optional[str] = None
    headroom: str = ""           # the suite budget line, if judged

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == REGRESSION]

    @property
    def warnings(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == WARN]

    @property
    def ok(self) -> bool:
        return not self.regressions


# -- the results walker -----------------------------------------------------


def _paired_leaves(base: Any, cand: Any,
                   path: str) -> Iterator[Tuple[str, Any, Any]]:
    """Yield ``(path, baseline, candidate)`` for every leaf.

    Dicts pair by key and lists (sweep rows, labelled by ``x``) by
    position; an entry on one side only yields its whole subtree
    against ``None``.
    """
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand), key=str):
            where = path if key in _STRUCTURAL_KEYS \
                else f"{path}.{key}".lstrip(".")
            if key in base and key in cand:
                yield from _paired_leaves(base[key], cand[key], where)
            else:
                yield where, base.get(key), cand.get(key)
    elif isinstance(base, list) and isinstance(cand, list):
        for index in range(max(len(base), len(cand))):
            pair = (base[index] if index < len(base) else None,
                    cand[index] if index < len(cand) else None)
            row = pair[0] or pair[1]
            where = path + (f"[x={row['x']:g}]" if isinstance(row, dict)
                            and _is_number(row.get("x"))
                            else f"[{index}]")
            if None in pair:
                yield (where,) + pair
            else:
                yield from _paired_leaves(*pair, where)
    else:
        yield path, base, cand


def _same(base: Any, cand: Any) -> bool:
    return base == cand or (base != base and cand != cand)   # NaN


def _regression(path: str, base: Any, cand: Any) -> Delta:
    note = ("disappeared" if cand is None
            else "new (not in baseline)" if base is None else "differs")
    return Delta(path, base, cand, REGRESSION, note=note)


# -- real-time budgets ------------------------------------------------------


def _budget(report: ComparisonReport, path: str, base: Any, cand: Any,
            factor: float, slack: float, severity: str) -> None:
    """Flag ``cand`` above ``factor * base + slack``."""
    if base is None:
        return
    if cand is None:
        report.deltas.append(_regression(path, base, cand))
    elif cand > factor * base + slack:
        report.deltas.append(Delta(
            path, base, cand, severity,
            note=f"over budget {factor * base + slack:.4g}"))


def _judge_real_time(baseline: Dict[str, Any],
                     candidate: Dict[str, Any],
                     report: ComparisonReport) -> None:
    """The wall-clock budgets and the warn-only ``perf`` numbers."""
    base_exps = baseline.get("experiments", {})
    cand_exps = candidate.get("experiments", {})
    base_total = baseline.get("total_wall_clock_s")
    cand_total = candidate.get("total_wall_clock_s")
    if base_total is not None and cand_total is not None:
        report.headroom = (
            f"suite wall clock: {cand_total:.1f}s of "
            f"{1.5 * base_total + 2.0:.1f}s budget "
            f"(baseline {base_total:.1f}s x 1.5 + 2s)")
    _budget(report, "total_wall_clock_s", base_total, cand_total,
            1.5, 2.0, REGRESSION)
    for key in sorted(set(base_exps) & set(cand_exps)):
        _budget(report, f"{key}.wall_clock_s",
                base_exps[key].get("wall_clock_s"),
                cand_exps[key].get("wall_clock_s"), 2.0, 1.0,
                WARN if key in VOLATILE_EXPERIMENTS else REGRESSION)
    base_rt = {key: base_exps[key].get("parts")
               for key in VOLATILE_EXPERIMENTS if key in base_exps}
    cand_rt = {key: cand_exps[key].get("parts")
               for key in VOLATILE_EXPERIMENTS if key in cand_exps}
    for path, base, cand in _paired_leaves(base_rt, cand_rt, ""):
        report.compared += 1
        if _is_number(base) and _is_number(cand):
            _budget(report, path, base, cand, 2.0, 1.0, WARN)
        elif not _same(base, cand):
            report.deltas.append(_regression(path, base, cand))


# -- comparison -------------------------------------------------------------


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any],
            budgets: bool = True) -> ComparisonReport:
    """Judge ``candidate``'s results against ``baseline``'s, exactly.

    Every leaf of the stripped experiments must be equal; a value,
    part or experiment present on one side only is a regression.
    ``budgets`` adds the real-time budgets (``--compare``); without
    them (``--identity``) wall clocks and the ``perf`` experiment are
    not judged at all.
    """
    report = ComparisonReport(
        baseline_src=baseline.get("provenance", {}).get("src_sha256"),
        candidate_src=candidate.get("provenance", {}).get("src_sha256"))
    for path, base, cand in _paired_leaves(
            strip_volatile(baseline)["experiments"],
            strip_volatile(candidate)["experiments"], ""):
        report.compared += 1
        if not _same(base, cand):
            report.deltas.append(_regression(path, base, cand))
    if budgets:
        _judge_real_time(baseline, candidate, report)
    return report


# -- regression attribution -------------------------------------------------


@dataclass(frozen=True)
class AttributionShift:
    """How one (node, resource-category) segment's share moved."""

    node: str
    category: str
    baseline_share: float        # fraction of total attributed time
    candidate_share: float
    baseline_s: float
    candidate_s: float

    @property
    def share_delta(self) -> float:
        return self.candidate_share - self.baseline_share

    def describe(self) -> str:
        """One human-readable line naming the moved segment."""
        return (f"{self.share_delta:+.1%} of attributed time moved "
                f"{'into' if self.share_delta >= 0 else 'out of'} "
                f"{self.category} on {self.node} "
                f"({self.baseline_s:.3g}s -> {self.candidate_s:.3g}s)")


def _breakdown(artifact: Dict[str, Any], experiment: str,
               part: str) -> Optional[Dict[str, Dict[str, float]]]:
    entry = artifact.get("experiments", {}).get(experiment)
    if entry is None:
        return None
    payload = entry.get("parts", {}).get(part)
    if payload is None or payload.get("type") != "nested":
        return None
    return payload["rows"]


def attribution_shifts(baseline: Dict[str, Any],
                       candidate: Dict[str, Any],
                       experiment: str = "attr",
                       part: str = "breakdown",
                       ) -> List[AttributionShift]:
    """Per-(node, category) attribution share movement.

    Reads the ``attr`` experiment's per-node resource breakdown from
    both artifacts, normalizes each side to *shares* of its own total
    attributed time (so a uniformly slower run shows no shift), and
    returns every segment sorted by how far its share moved —
    biggest mover first.  Empty when either artifact lacks the
    breakdown.
    """
    base = _breakdown(baseline, experiment, part)
    cand = _breakdown(candidate, experiment, part)
    if base is None or cand is None:
        return []
    base_total = sum(v for row in base.values() for v in row.values())
    cand_total = sum(v for row in cand.values() for v in row.values())
    if base_total <= 0 or cand_total <= 0:
        return []
    shifts = []
    for node in sorted(set(base) | set(cand)):
        categories = (set(base.get(node, {}))
                      | set(cand.get(node, {})))
        for category in sorted(categories):
            base_s = base.get(node, {}).get(category, 0.0)
            cand_s = cand.get(node, {}).get(category, 0.0)
            shifts.append(AttributionShift(
                node, category,
                base_s / base_total, cand_s / cand_total,
                base_s, cand_s))
    shifts.sort(key=lambda s: (-abs(s.share_delta), s.node,
                               s.category))
    return shifts


def render_attribution_shifts(report: ComparisonReport,
                              baseline: Dict[str, Any],
                              candidate: Dict[str, Any],
                              top: int = 3,
                              min_share_delta: float = 0.01,
                              ) -> str:
    """Name the resource segments behind flagged latency/goodput drift.

    When ``--compare`` flags a latency or goodput delta and both
    artifacts carry the ``attr`` breakdown, this turns "p99 regressed
    12%" into "p99 regressed 12%, +9% of it NIC-wire wait on node-2".
    Empty string when there is nothing to attribute.
    """
    flagged = [d for d in report.deltas
               if any(tag in d.path for tag in ("latency", "goodput"))]
    if not flagged:
        return ""
    movers = [s for s in attribution_shifts(baseline, candidate)
              if abs(s.share_delta) >= min_share_delta][:top]
    if not movers:
        return ""
    lines = ["attribution of the flagged latency/goodput drift:"]
    for delta in flagged[:top]:
        rel = delta.rel_change
        rel_str = "inf" if math.isinf(rel) else f"{rel:+.1%}"
        lines.append(f"  {delta.path}: {rel_str}")
    for shift in movers:
        lines.append(f"  {shift.describe()}")
    return "\n".join(lines)


def _show(value: Any) -> str:
    """A cell: repr for a scalar (a 1-ulp change shows), a size for a
    missing subtree."""
    if isinstance(value, (dict, list)):
        return f"<{len(value)} entries>"
    return "-" if value is None else repr(value)


def render_comparison(report: ComparisonReport) -> str:
    """The human report ``--compare`` and ``--identity`` print."""
    from ..bench.reporting import format_table

    lines = [f"baseline  src_sha256: {report.baseline_src}",
             f"candidate src_sha256: {report.candidate_src}", ""]
    if report.deltas:
        rows = []
        for delta in report.deltas:
            rel = delta.rel_change
            rows.append([
                delta.status, delta.path, _show(delta.baseline),
                _show(delta.candidate),
                "-" if math.isnan(rel) else (
                    "inf" if math.isinf(rel) else f"{rel:+.2%}"),
                delta.note,
            ])
        lines.append(format_table(
            ["status", "path", "baseline", "candidate", "change",
             "note"], rows))
        lines.append("")
    if report.headroom:
        lines.append(report.headroom)
    lines.append(
        f"{report.compared} values compared: "
        f"{len(report.regressions)} regressions, "
        f"{len(report.warnings)} warnings")
    return "\n".join(lines)
