import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgrid.errors import DomainError
from evgrid.evidential import (
    DirichletParams,
    Evidence,
    EvidentialState,
    ProbabilisticState,
    dirichlet_expectation,
    evidence_to_belief_array,
    evidence_to_dirichlet,
    evidence_to_evidential,
    evidential_to_probability,
    percentile_reduce_array,
)

evidence_2 = st.tuples(
    st.floats(0.0, 1e6, allow_nan=False), st.floats(0.0, 1e6, allow_nan=False)
).map(Evidence)


class TestTypes:
    def test_probabilistic_state_must_sum_to_one(self):
        with pytest.raises(DomainError):
            ProbabilisticState(0.5, 0.6)

    def test_evidential_state_bounds(self):
        with pytest.raises(DomainError):
            EvidentialState(1.2, -0.2, 0.0)

    def test_negative_evidence_rejected(self):
        with pytest.raises(DomainError):
            Evidence((1.0, -0.1))

    def test_nonfinite_evidence_rejected(self):
        with pytest.raises(DomainError):
            Evidence((float("nan"), 0.0))

    @pytest.mark.parametrize("e", [(), (1.0,), (1.0, 2.0, 3.0)], ids=["none", "one", "three"])
    def test_evidence_must_have_two_components(self, e):
        with pytest.raises(DomainError, match="expected 2"):
            Evidence(e)

    def test_dirichlet_strength(self):
        d = DirichletParams(alpha=(4.0, 2.0))
        assert d.S == 6.0


class TestEvidenceToEvidential:
    def test_vacuous(self):
        s = evidence_to_evidential(Evidence((0.0, 0.0)))
        assert (s.b_f, s.b_o, s.u) == (0.0, 0.0, 1.0)

    def test_single_class(self):
        s = evidence_to_evidential(Evidence((2.0, 0.0)))
        assert (s.b_f, s.b_o, s.u) == (0.5, 0.0, 0.5)

    def test_mixed(self):
        s = evidence_to_evidential(Evidence((6.0, 2.0)))
        assert (s.b_f, s.b_o, s.u) == pytest.approx((0.6, 0.2, 0.2))

    @given(evidence_2)
    def test_masses_sum_to_one(self, e):
        s = evidence_to_evidential(e)
        assert abs(s.b_f + s.b_o + s.u - 1.0) < 1e-9
        assert s.u == pytest.approx(2.0 / (2.0 + sum(e.e)))

    def test_unknown_strictly_decreases_with_evidence(self):
        base = evidence_to_evidential(Evidence((1.0, 2.0)))
        for bumped in [(1.5, 2.0), (1.0, 2.5)]:
            assert evidence_to_evidential(Evidence(bumped)).u < base.u


class TestDirichlet:
    def test_uniform_prior(self):
        assert evidence_to_dirichlet(Evidence((0.0, 0.0))).alpha == (1.0, 1.0)

    def test_shift(self):
        assert evidence_to_dirichlet(Evidence((3.0, 1.0))).alpha == (4.0, 2.0)

    def test_one_sided(self):
        assert evidence_to_dirichlet(Evidence((0.0, 5.0))).alpha == (1.0, 6.0)

    @pytest.mark.parametrize(
        "alpha,expected",
        [((1.0, 1.0), (0.5, 0.5)), ((4.0, 2.0), (2 / 3, 1 / 3)), ((1.0, 6.0), (1 / 7, 6 / 7))],
    )
    def test_expectation(self, alpha, expected):
        p = dirichlet_expectation(DirichletParams(alpha=alpha))
        assert (p.p_f, p.p_o) == pytest.approx(expected)


class TestEvidentialToProbability:
    def test_full_ignorance(self):
        p = evidential_to_probability(EvidentialState(0.0, 0.0, 1.0))
        assert (p.p_f, p.p_o) == (0.5, 0.5)

    def test_partial(self):
        p = evidential_to_probability(EvidentialState(0.6, 0.2, 0.2))
        assert (p.p_f, p.p_o) == pytest.approx((0.7, 0.3))

    def test_certainty_fixed_point(self):
        p = evidential_to_probability(EvidentialState(1.0, 0.0, 0.0))
        assert (p.p_f, p.p_o) == (1.0, 0.0)

    @given(evidence_2)
    @settings(max_examples=200)
    def test_round_trip_identity(self, e):
        via_belief = evidential_to_probability(evidence_to_evidential(e))
        via_dirichlet = dirichlet_expectation(evidence_to_dirichlet(e))
        assert via_belief.p_f == pytest.approx(via_dirichlet.p_f, abs=1e-12)
        assert via_belief.p_o == pytest.approx(via_dirichlet.p_o, abs=1e-12)


class TestReductions:
    def test_percentile_matches_sorted_rank(self):
        # 100 samples with component values 1..100: 10th percentile = 10th smallest
        samples = np.stack([np.arange(1.0, 101.0), np.zeros(100)], axis=1)
        assert percentile_reduce_array(samples, 10)[0] == 10.0

    def test_single_sample_any_percentile(self):
        samples = np.array([[3.0, 7.0]])
        for n in (1, 50, 100):
            assert percentile_reduce_array(samples, n).tolist() == [3.0, 7.0]

    def test_median_of_three(self):
        samples = np.array([[5.0, 5.0], [1.0, 1.0], [3.0, 3.0]])
        assert percentile_reduce_array(samples, 50).tolist() == [3.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            percentile_reduce_array(np.zeros((0, 2)), 50)

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = percentile_reduce_array(np.array(values), 30)
        b = percentile_reduce_array(np.array(shuffled), 30)
        assert a.tolist() == b.tolist()

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=25))
    def test_monotone_in_percentile(self, values):
        samples = np.array(values)
        results = [float(percentile_reduce_array(samples, n)) for n in (10, 30, 50, 80, 100)]
        assert results == sorted(results)


class TestArrayPath:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        e = rng.uniform(0, 10, size=(2, 4, 4))
        beliefs = evidence_to_belief_array(e)
        for i in range(4):
            for j in range(4):
                s = evidence_to_evidential(Evidence((e[0, i, j], e[1, i, j])))
                assert beliefs[:, i, j] == pytest.approx([s.b_f, s.b_o, s.u])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            evidence_to_belief_array(np.array([[-1.0], [0.0]]))
