"""Touchdown-error summaries and the exact paired Wilcoxon signed-rank test.

The two-sided p-value is exact for n <= EXACT_ENUMERATION_LIMIT (100)
nonzero differences: the null distribution of the positive rank sum is
built by counting all 2**n sign assignments over the observed
(tied-average) rank vector, and p = P(min(W+, W-) <= observed). The
count takes ~50 ms at n = 100; above the limit, p comes from the normal
approximation with tie correction and the result says exact=False.
Failure trials enter the error lists with their blind-descent touchdown
error; nothing is excluded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .harness import Mode, TrialResult

EXACT_ENUMERATION_LIMIT = 100


@dataclass(frozen=True)
class ErrorSummary:
    n: int
    mean_error: float
    std_error: float  # sample standard deviation (n - 1 denominator)
    success_rate: float


@dataclass(frozen=True)
class WilcoxonResult:
    n_effective: int  # pairs remaining after zero-difference removal
    w_plus: float
    w_minus: float
    statistic: float  # min(w_plus, w_minus)
    p_two_sided: float
    degenerate: bool = False  # all differences were exactly zero
    exact: bool = True


def summarize(errors: list[float], successes: list[bool]) -> ErrorSummary:
    """Mean, sample std, and success fraction of one mode's error list."""
    if not errors:
        raise ValueError("cannot summarize an empty error list")
    if len(errors) != len(successes):
        raise ValueError("errors and successes must be paired")
    arr = np.asarray(errors, dtype=float)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return ErrorSummary(
        n=int(arr.size),
        mean_error=float(np.mean(arr)),
        std_error=std,
        success_rate=sum(successes) / len(successes),
    )


def _doubled_ranks(values: list[float]) -> tuple[list[int], list[int]]:
    """Twice the tied-average ranks of values, as exact integers, plus the
    tie-group sizes. A tie group at sorted 1-based positions i..j gets i + j."""
    order = sorted(range(len(values)), key=values.__getitem__)
    doubled = [0] * len(values)
    sizes = []
    j = 0
    for _, group in itertools.groupby(order, key=values.__getitem__):
        group = list(group)
        i, j = j + 1, j + len(group)
        for k in group:
            doubled[k] = i + j
        sizes.append(len(group))
    return doubled, sizes


def _signed_rank_pmf_counts(doubled_ranks: list[int]) -> list[int]:
    """Counts of sign assignments producing each doubled positive-rank-sum.

    counts[w] = number of the 2^n assignments with sum of positive doubled
    ranks equal to w. Generating-function recursion; exact integers.
    """
    counts = [1] + [0] * sum(doubled_ranks)
    upper = 0
    for r in doubled_ranks:
        for w in range(upper, -1, -1):
            counts[w + r] += counts[w]
        upper += r
    return counts


def wilcoxon_signed_rank(errors_a: list[float], errors_b: list[float]) -> WilcoxonResult:
    """Exact two-sided paired signed-rank test of a vs b.

    Zero differences are dropped; tied magnitudes get average ranks; the
    enumeration uses the same tied-rank vector. All-zero input yields the
    degenerate p = 1 result.
    """
    if len(errors_a) != len(errors_b):
        raise ValueError(
            f"paired lists must have equal length ({len(errors_a)} vs {len(errors_b)})"
        )
    diffs = [a - b for a, b in zip(errors_a, errors_b)]
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return WilcoxonResult(
            n_effective=0, w_plus=0.0, w_minus=0.0, statistic=0.0,
            p_two_sided=1.0, degenerate=True,
        )

    doubled, tie_sizes = _doubled_ranks([abs(d) for d in nonzero])
    total2 = n * (n + 1)
    w2_plus = sum(r for r, d in zip(doubled, nonzero) if d > 0)
    w_plus, w_minus = w2_plus / 2, (total2 - w2_plus) / 2

    if n <= EXACT_ENUMERATION_LIMIT:
        stat2 = min(w2_plus, total2 - w2_plus)
        counts = _signed_rank_pmf_counts(doubled)
        hits = sum(c for w, c in enumerate(counts) if min(w, total2 - w) <= stat2)
        p = hits / 2**n
        exact = True
    else:
        # normal approximation with tie correction for large n
        mean = total2 / 4
        tie_term = sum(t**3 - t for t in tie_sizes)
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
        z = (w_plus - mean) / math.sqrt(var)
        p = float(min(1.0, 2.0 * _normal_sf(abs(z))))
        exact = False

    return WilcoxonResult(
        n_effective=n, w_plus=w_plus, w_minus=w_minus, statistic=min(w_plus, w_minus),
        p_two_sided=p, exact=exact,
    )


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class PairedComparison:
    mode_a: str
    mode_b: str
    test: WilcoxonResult
    significant_05: bool
    significant_01: bool


@dataclass(frozen=True)
class ModeComparison:
    summaries: dict[str, ErrorSummary]
    comparisons: list[PairedComparison]


def compare_modes(results: dict[Mode, list[TrialResult]]) -> ModeComparison:
    """Per-mode summaries plus paired tests of DUAL against each single
    expert (when those modes are present).

    Requires the mode lists to be paired trial-by-trial: same length and
    identical initial states per index.
    """
    if not results:
        raise ValueError("no results to compare")
    lengths = {len(v) for v in results.values()}
    if len(lengths) != 1:
        raise ValueError(f"unpaired inputs: trial counts differ ({sorted(lengths)})")
    modes = list(results)
    reference = results[modes[0]]
    for mode in modes[1:]:
        for i, (a, b) in enumerate(zip(reference, results[mode])):
            if a.initial_position != b.initial_position:
                raise ValueError(f"unpaired inputs: initial states differ at trial {i}")

    summaries = {}
    for mode, trials in results.items():
        errors = [t.touchdown_error for t in trials]
        successes = [t.success for t in trials]
        summaries[mode.value] = summarize(errors, successes)

    comparisons = []
    if Mode.DUAL in results:
        dual_errors = [t.touchdown_error for t in results[Mode.DUAL]]
        for other in (Mode.FAR_ONLY, Mode.NEAR_ONLY):
            if other not in results:
                continue
            other_errors = [t.touchdown_error for t in results[other]]
            test = wilcoxon_signed_rank(dual_errors, other_errors)
            comparisons.append(
                PairedComparison(
                    mode_a=Mode.DUAL.value,
                    mode_b=other.value,
                    test=test,
                    significant_05=test.p_two_sided < 0.05,
                    significant_01=test.p_two_sided < 0.01,
                )
            )
    return ModeComparison(summaries=summaries, comparisons=comparisons)


def format_comparison_table(report: ModeComparison) -> str:
    """Aligned plain-text table: per-mode error stats plus the paired tests."""
    lines = []
    header = f"{'Model':<12} {'Mean Error (m)':>15} {'Std Dev (m)':>12} {'Success':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for name in ("dual", "near_only", "far_only"):
        if name not in report.summaries:
            continue
        s = report.summaries[name]
        lines.append(
            f"{name:<12} {s.mean_error:>15.3f} {s.std_error:>12.3f} "
            f"{int(round(s.success_rate * s.n)):>5d}/{s.n}"
        )
    if report.comparisons:
        lines.append("")
        lines.append("Paired Wilcoxon signed-rank (two-sided):")
        for comp in report.comparisons:
            t = comp.test
            sig = (
                "significant at 0.01"
                if comp.significant_01
                else "significant at 0.05"
                if comp.significant_05
                else "not significant"
            )
            method = "exact" if t.exact else "normal approx."
            lines.append(
                f"  {comp.mode_a} vs {comp.mode_b}: W = {t.statistic:g}, "
                f"p = {t.p_two_sided:.6g} ({method}; {sig})"
            )
    return "\n".join(lines)
