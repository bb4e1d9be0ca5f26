from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdecomp.ir import BORROWED, BURNABLE, GateSetSpec, S3_2
from mcdecomp.metrics import (
    LeadingTerm,
    MetricsError,
    asymptotic_count_burnable,
    exact_count_zeroed,
    gateset_dominates,
    gdc,
    mixer_entangling_count,
    threshold_chain,
    threshold_requirement,
)

TABLE3 = {
    # n: (s2_2/one, s2_3/one, s2_2/n, s2_3/n, s3_2)
    1: (2, 2, 2, 2, 2),
    2: (6, 2, 6, 2, 4),
    3: (18, 4, 18, 4, 14),
    4: (42, 10, 24, 6, 16),
    5: (72, 16, 30, 8, 26),
}


def test_exact_counts_match_table():
    for n, row in TABLE3.items():
        got = (
            exact_count_zeroed(n, "s2_2", "one"),
            exact_count_zeroed(n, "s2_3", "one"),
            exact_count_zeroed(n, "s2_2", "n"),
            exact_count_zeroed(n, "s2_3", "n"),
            exact_count_zeroed(n, "s3_2", "none"),
        )
        assert got == row


def test_exact_count_examples():
    assert exact_count_zeroed(3, "s2_2", "one") == 18
    assert exact_count_zeroed(5, "s3_2", "none") == 26
    for fam, bud in (("s2_2", "one"), ("s2_3", "one"), ("s2_2", "n"), ("s2_3", "n")):
        assert exact_count_zeroed(1, fam, bud) == 2


def test_exact_count_rejects_bad_column():
    with pytest.raises(MetricsError):
        exact_count_zeroed(3, "s3_2", "one")
    with pytest.raises(MetricsError):
        exact_count_zeroed(0, "s2_2", "one")


def test_asymptotic_examples():
    assert tuple(asymptotic_count_burnable(10, "rx", "s2_2", "none")) == (256, 220)
    assert tuple(asymptotic_count_burnable(10, "x", "s2_3", "one")) == (0, 0, 28)
    lead = asymptotic_count_burnable(10, "rx", "s2_m", "one", m=5)
    assert isinstance(lead, LeadingTerm)
    assert lead.coefficient == Fraction(8, 3)
    assert lead.gate_arity == 5


def test_empty_x_cells_fall_back_to_rx():
    rx_tuple = asymptotic_count_burnable(20, "rx", "s2_2", "n")
    x_tuple = asymptotic_count_burnable(20, "x", "s2_2", "n")
    assert tuple(rx_tuple) == tuple(x_tuple) == (8 * 20 - 8, 6 * 20 - 6)


def test_gdc_examples():
    assert gdc({2: 10}, {2: 1.0}) == 0.0
    val = gdc({2: 10}, {2: 0.99})
    assert abs(val - 0.1005) < 1e-3
    assert abs(gdc({2: 20}, {2: 0.99}) - 2 * val) < 1e-12


def test_gdc_validation():
    with pytest.raises(MetricsError):
        gdc({2: 10}, {2: 0.0})
    with pytest.raises(MetricsError):
        gdc({2: -1}, {2: 0.9})
    with pytest.raises(MetricsError):
        gdc({2: 1}, {})


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(1, 4), st.integers(0, 50), min_size=1, max_size=4),
    st.dictionaries(st.integers(1, 4), st.floats(0.5, 1.0), min_size=4, max_size=4),
)
def test_gdc_additive_and_monotone(hist, fids):
    fids = {k: fids.get(k, 0.9) for k in range(1, 5)}
    total = gdc(hist, fids)
    half = {k: 2 * v for k, v in hist.items()}
    assert abs(gdc(half, fids) - 2 * total) < 1e-9
    better = {k: min(1.0, v * 1.01) for k, v in fids.items()}
    assert gdc(hist, better) <= total + 1e-12


def test_threshold_requirements():
    assert str(threshold_requirement(3)) == "F3 > F1^2 F2^2"
    assert str(threshold_requirement(4)) == "F4 > F3^2"
    assert str(threshold_requirement(5)) == "F5^2 > F4^3"
    assert str(threshold_requirement(8)) == "F8^5 > F7^6"
    with pytest.raises(MetricsError):
        threshold_requirement(2)


def test_threshold_chain_center_column():
    chain = threshold_chain(0.999, 0.99)
    assert abs(chain.value(3) - 0.978) < 5e-4
    assert abs(chain.value(4) - 0.957) < 5e-4
    assert abs(chain.value(5) - 0.936) < 5e-4


def test_threshold_chain_first_column_two_sig_figs():
    chain = threshold_chain(0.95, 0.90)
    for m, want in ((3, 0.73), (4, 0.53), (5, 0.39), (6, 0.29), (7, 0.21), (8, 0.15)):
        assert abs(chain.value(m) - want) < 5e-3


def test_threshold_chain_trivial():
    chain = threshold_chain(1.0, 1.0)
    assert all(v == 1.0 for _, v in chain.thresholds)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 1.0), st.floats(0.5, 1.0), st.integers(4, 10))
def test_threshold_chain_closed_form(f1, f2, m):
    chain = threshold_chain(f1, f2, m)
    closed = (f1 * f2) ** (2 * (m - 2))
    assert abs(chain.value(m) - closed) <= 1e-12 * max(closed, 1e-300)


def test_threshold_chain_strictly_decreasing():
    chain = threshold_chain(0.999, 0.99)
    vals = [v for _, v in chain.thresholds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _specs(f3):
    a = GateSetSpec("s2_3", fidelities=((1, 0.999), (2, 0.99), (3, f3)))
    b = GateSetSpec("s2_2", fidelities=((1, 0.999), (2, 0.99)))
    return a, b


def test_dominates_examples():
    a, b = _specs(0.99)
    assert gateset_dominates(a, b, "rx", "one")
    assert not gateset_dominates(b, b, "rx", "one")  # irreflexive
    a, b = _specs(0.97)
    assert not gateset_dominates(a, b, "rx", "one")


def test_dominates_flips_at_threshold():
    boundary = (0.999 * 0.99) ** 2
    lo, hi = _specs(boundary - 1e-4)
    assert not gateset_dominates(lo, hi, "rx", "one")
    hi2, b = _specs(boundary + 1e-4)
    assert gateset_dominates(hi2, b, "rx", "one")


def test_dominates_asymmetric():
    a, b = _specs(0.995)
    assert gateset_dominates(a, b, "rx", "one") != gateset_dominates(b, a, "rx", "one")


def test_dominates_rejects_an_unknown_budget():
    a, b = _specs(0.99)
    with pytest.raises(MetricsError, match="unsupported table cell"):
        gateset_dominates(a, b, "rx", "bogus")


def test_dominates_rejects_an_unknown_workload():
    # the Rx-row fallback serves only X cells, not any unknown workload
    a, b = _specs(0.99)
    with pytest.raises(MetricsError, match="unknown workload"):
        gateset_dominates(a, b, "z", "one")


def test_qutrit_mixer_counts_follow_the_burnable_table():
    for ell in range(1, 9):
        row = asymptotic_count_burnable(ell, "rx", S3_2, "none")
        assert mixer_entangling_count(ell, S3_2, "none", BURNABLE) == row.entangling == 6 * ell - 4
        assert mixer_entangling_count(ell, S3_2, "none") == exact_count_zeroed(ell, S3_2, "none")
    a = GateSetSpec(S3_2, fidelities=((1, 0.999), (2, 0.99)))
    b = GateSetSpec(S3_2, fidelities=((1, 0.999), (2, 0.98)))
    assert gateset_dominates(a, b, "rx", "one") and not gateset_dominates(b, a, "x", "one")


@pytest.mark.parametrize("family, budget", [("s2_2", "one"), ("s2_3", "n"), (S3_2, "none")])
def test_mixer_count_rejects_the_borrowed_regime(family, budget):
    with pytest.raises(MetricsError, match="regime"):
        mixer_entangling_count(3, family, budget, BORROWED)
