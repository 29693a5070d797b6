import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from padland.harness import Mode, TerminationReason, TrialResult
from padland.stats import (
    EXACT_ENUMERATION_LIMIT,
    _doubled_ranks,
    _signed_rank_pmf_counts,
    compare_modes,
    format_comparison_table,
    summarize,
    wilcoxon_signed_rank,
)


def brute_force_p(diffs: list[float]) -> float:
    """Oracle: enumerate every sign assignment over the tied-rank vector and
    count those whose min(W+, W-) is at most the observed one."""
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return 1.0
    ranks = list(rankdata([abs(d) for d in nonzero]))
    total = n * (n + 1) / 2.0
    w_plus_obs = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    stat_obs = min(w_plus_obs, total - w_plus_obs)
    hits = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        w_plus = sum(r for r, sgn in zip(ranks, signs) if sgn > 0)
        if min(w_plus, total - w_plus) <= stat_obs:
            hits += 1
    return hits / 2**n


class TestSummarize:
    def test_constant_list(self):
        s = summarize([2.0, 2.0, 2.0], [True, True, True])
        assert s.mean_error == 2.0
        assert s.std_error == 0.0
        assert s.success_rate == 1.0

    def test_two_values(self):
        s = summarize([1.0, 3.0], [True, False])
        assert s.mean_error == 2.0
        assert s.std_error == pytest.approx(math.sqrt(2.0))
        assert s.success_rate == 0.5

    def test_single_value_has_zero_std(self):
        s = summarize([4.2], [True])
        assert s.n == 1 and s.std_error == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([], [])

    def test_unpaired_lists_raise(self):
        with pytest.raises(ValueError, match="must be paired"):
            summarize([1.0, 3.0], [True])


class TestWilcoxonExamples:
    def test_three_positive_differences(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert res.w_minus == 0.0
        assert res.p_two_sided == 0.25  # 2 * (1/8)

    def test_five_one_direction_distinct(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert res.p_two_sided == 0.0625  # 2 * (1/32)

    def test_ten_one_direction_distinct(self):
        a = [float(i + 1) for i in range(10)]
        res = wilcoxon_signed_rank(a, [0.0] * 10)
        assert res.p_two_sided == 2.0 / 1024.0

    def test_perfectly_symmetric_tie(self):
        res = wilcoxon_signed_rank([1.0, 0.0], [0.0, 1.0])  # d = +1, -1
        assert res.w_plus == 1.5 and res.w_minus == 1.5
        assert res.p_two_sided == 1.0

    def test_zero_differences_dropped(self):
        res = wilcoxon_signed_rank([5.0, 1.0, 2.0, 3.0], [5.0, 0.0, 0.0, 0.0])
        assert res.n_effective == 3
        assert res.p_two_sided == 0.25

    def test_all_zero_is_degenerate(self):
        res = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert res.degenerate
        assert res.n_effective == 0
        assert res.p_two_sided == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestDoubledRanks:
    # small integers and halves force ties and zeros; wide floats do not
    values = st.lists(
        st.one_of(
            st.integers(0, 4).map(lambda k: k / 2),
            st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=False),
        ),
        max_size=40,
    )

    @given(values)
    def test_doubled_ranks_are_twice_scipy_average_ranks(self, values):
        doubled, sizes = _doubled_ranks(values)
        assert all(type(r) is int for r in doubled)
        assert doubled == (2 * rankdata(values)).tolist()
        assert sorted(sizes) == sorted(np.unique(values, return_counts=True)[1].tolist())

    @given(st.lists(st.integers(0, 20), max_size=EXACT_ENUMERATION_LIMIT))
    def test_pmf_counts_cover_every_sign_assignment(self, values):
        # every one of the 2**n sign assignments lands on exactly one sum,
        # tied ranks or not, up to the largest n the exact test enumerates
        doubled, _ = _doubled_ranks(values)
        assert sum(_signed_rank_pmf_counts(doubled)) == 2 ** len(values)


# small integers force ties and zero differences; the floats stay far from
# the subnormal range, so scaling by 2**k (|k| <= 8) and subtracting are exact
_sample_value = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: x == 0.0 or abs(x) >= 1e-100),
)
# paired lists on both sides of EXACT_ENUMERATION_LIMIT: n up to 30, or
# just above the limit (a quarter of draws, since long lists draw slowly)
_paired_samples = st.integers(0, 40).map(
    lambda k: k if k <= 30 else EXACT_ENUMERATION_LIMIT + k - 30
).flatmap(
    lambda n: st.tuples(
        st.lists(_sample_value, min_size=n, max_size=n),
        st.lists(_sample_value, min_size=n, max_size=n),
    )
)


class TestWilcoxonProperties:
    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = rng.normal(5.0, 2.0, size=n)
            b = rng.normal(5.0, 2.0, size=n)
            if rng.uniform() < 0.3:  # force some exact ties and zeros
                a = np.round(a)
                b = np.round(b)
            res = wilcoxon_signed_rank(list(a), list(b))
            assert res.p_two_sided == brute_force_p(list(a - b))

    def test_rank_sum_identity(self):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            a = list(rng.normal(size=n))
            b = list(rng.normal(size=n))
            res = wilcoxon_signed_rank(a, b)
            m = res.n_effective
            assert res.w_plus + res.w_minus == pytest.approx(m * (m + 1) / 2.0)

    @given(_paired_samples)
    def test_antisymmetry(self, pair):
        a, b = pair
        fwd = wilcoxon_signed_rank(a, b)
        rev = wilcoxon_signed_rank(b, a)
        assert fwd.w_plus == rev.w_minus
        assert fwd.w_minus == rev.w_plus
        assert fwd.p_two_sided == rev.p_two_sided
        assert fwd.n_effective == rev.n_effective

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(161)
        a = list(rng.normal(size=10))
        b = list(rng.normal(size=10))
        base = wilcoxon_signed_rank(a, b)
        for c in (0.001, 7.0, 1e6):
            scaled = wilcoxon_signed_rank([c * x for x in a], [c * x for x in b])
            assert scaled.w_plus == base.w_plus
            assert scaled.statistic == base.statistic
            assert scaled.p_two_sided == base.p_two_sided

    @given(_paired_samples, st.integers(-8, 8))
    def test_power_of_two_scaling_changes_no_field(self, pair, k):
        a, b = pair
        c = 2.0**k
        scaled = wilcoxon_signed_rank([c * x for x in a], [c * x for x in b])
        assert scaled == wilcoxon_signed_rank(a, b)

    def test_normal_approximation_agrees_at_n_ten(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            a = list(rng.normal(size=10))
            b = list(rng.normal(size=10))
            res = wilcoxon_signed_rank(a, b)
            n = res.n_effective
            if n < 6:
                continue
            mean = n * (n + 1) / 4.0
            sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
            z = (res.w_plus - mean) / sd
            p_norm = math.erfc(abs(z) / math.sqrt(2.0))
            assert abs(res.p_two_sided - p_norm) < 0.05

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(5150)
        n = EXACT_ENUMERATION_LIMIT + 1
        a = list(rng.normal(1.0, 1.0, size=n))
        b = list(rng.normal(0.0, 1.0, size=n))
        res = wilcoxon_signed_rank(a, b)
        assert res.n_effective == n
        assert not res.exact
        assert 0.0 < res.p_two_sided <= 1.0


def make_result(trial_id: int, error: float, initial=(0.0, 0.0, 70.0), success=True) -> TrialResult:
    return TrialResult(
        trial_id=trial_id,
        initial_position=initial,
        touchdown_xy=(0.0, 0.0),
        touchdown_error=error,
        success=success,
        termination_reason=TerminationReason.LANDED if success else TerminationReason.TRACKING_LOST,
        steps=100,
        expert_usage={"FAR": 50, "NEAR": 50},
    )


class TestCompareModes:
    def test_identical_lists_give_p_one(self):
        errors = [1.0, 2.0, 3.0, 4.0]
        results = {
            Mode.DUAL: [make_result(i, e) for i, e in enumerate(errors)],
            Mode.FAR_ONLY: [make_result(i, e) for i, e in enumerate(errors)],
        }
        report = compare_modes(results)
        comp = report.comparisons[0]
        assert comp.test.degenerate
        assert comp.test.p_two_sided == 1.0
        assert not comp.significant_05

    def test_uniformly_better_mode_hits_exact_floor(self):
        dual = [make_result(i, 0.1 * (i + 1)) for i in range(10)]
        far = [make_result(i, 1.0 + 0.5 * i) for i in range(10)]
        report = compare_modes({Mode.DUAL: dual, Mode.FAR_ONLY: far})
        comp = report.comparisons[0]
        assert comp.test.p_two_sided == pytest.approx(2.0 / 1024.0)
        assert comp.significant_01

    def test_mixed_directions_match_oracle(self):
        rng = np.random.default_rng(10)
        d_err = list(rng.uniform(0.1, 5.0, size=10))
        f_err = [d + s for d, s in zip(d_err, [1, 1, 1, 1, 1, 1, -0.5, -0.7, -0.2, -1.3])]
        dual = [make_result(i, e) for i, e in enumerate(d_err)]
        far = [make_result(i, e) for i, e in enumerate(f_err)]
        report = compare_modes({Mode.DUAL: dual, Mode.FAR_ONLY: far})
        diffs = [a - b for a, b in zip(d_err, f_err)]
        assert report.comparisons[0].test.p_two_sided == brute_force_p(diffs)

    def test_unpaired_lengths_rejected(self):
        with pytest.raises(ValueError, match="unpaired"):
            compare_modes(
                {
                    Mode.DUAL: [make_result(0, 1.0)],
                    Mode.FAR_ONLY: [make_result(0, 1.0), make_result(1, 2.0)],
                }
            )

    def test_no_modes_rejected(self):
        with pytest.raises(ValueError, match="no results to compare"):
            compare_modes({})

    def test_unpaired_initial_states_rejected(self):
        with pytest.raises(ValueError, match="unpaired"):
            compare_modes(
                {
                    Mode.DUAL: [make_result(0, 1.0, initial=(0.0, 0.0, 70.0))],
                    Mode.FAR_ONLY: [make_result(0, 1.0, initial=(5.0, 0.0, 70.0))],
                }
            )

    def test_table_renders_all_modes(self):
        results = {
            Mode.DUAL: [make_result(i, 0.5) for i in range(3)],
            Mode.NEAR_ONLY: [make_result(i, 1.5, success=False) for i in range(3)],
            Mode.FAR_ONLY: [make_result(i, 2.5) for i in range(3)],
        }
        text = format_comparison_table(compare_modes(results))
        for token in ("dual", "near_only", "far_only", "Wilcoxon", "Mean Error"):
            assert token in text
