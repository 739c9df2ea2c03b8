import pytest
from hypothesis import given, strategies as st

from motionstories.stories import (
    DEFAULT_TOLERANCE,
    INVERSE,
    RccRelation,
    Tolerance,
    bands_overlap,
    classify_discs,
)

R = RccRelation
EPS = DEFAULT_TOLERANCE.eps


class TestClassification:
    @pytest.mark.parametrize(
        "d, expected",
        [
            (5.0, R.DC),
            (3.0 + 2 * EPS, R.DC),
            (3.0 + 0.5 * EPS, R.EC),
            (3.0, R.EC),
            (3.0 - 0.5 * EPS, R.EC),
            (3.0 - 2 * EPS, R.PO),
            (2.0, R.PO),
            (1.0 + 2 * EPS, R.PO),
            (1.0 + 0.5 * EPS, R.TPP),
            (1.0, R.TPP),
            (1.0 - 0.5 * EPS, R.TPP),
            (1.0 - 2 * EPS, R.NTPP),
            (0.5, R.NTPP),
            (0.0, R.NTPP),
        ],
    )
    def test_radii_one_two(self, d, expected):
        assert classify_discs(d, 1.0, 2.0) is expected

    def test_larger_k_gives_inverse_containment(self):
        assert classify_discs(1.0, 2.0, 1.0) is R.TPPI
        assert classify_discs(0.3, 2.0, 1.0) is R.NTPPI

    @pytest.mark.parametrize(
        "d, expected",
        [(2.0, R.EC), (1.0, R.PO), (EPS, R.EQ), (0.0, R.EQ), (2 * EPS, R.PO)],
    )
    def test_equal_radii(self, d, expected):
        assert classify_discs(d, 1.0, 1.0) is expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classify_discs(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            classify_discs(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            classify_discs(float("nan"), 1.0, 2.0)

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0.01, max_value=5, allow_nan=False),
        st.floats(min_value=0.01, max_value=5, allow_nan=False),
    )
    def test_total_and_deterministic(self, d, rk, rl):
        rel = classify_discs(d, rk, rl)
        assert rel in R
        assert classify_discs(d, rk, rl) is rel

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0.01, max_value=5, allow_nan=False),
        st.floats(min_value=0.01, max_value=5, allow_nan=False),
    )
    def test_swapping_radii_inverts(self, d, rk, rl):
        assert classify_discs(d, rl, rk) is INVERSE[classify_discs(d, rk, rl)]


class TestInverse:
    def test_involution(self):
        for rel in R:
            assert INVERSE[INVERSE[rel]] is rel

    def test_symmetric_relations_are_self_inverse(self):
        for rel in (R.DC, R.EC, R.PO, R.EQ):
            assert INVERSE[rel] is rel


class TestTolerance:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Tolerance(0.0)
        with pytest.raises(ValueError):
            Tolerance(-1e-9)

    def test_bands_overlap_detects_pathological_radii(self):
        assert not bands_overlap(1.0, 2.0)
        # A disc tiny enough that the external and internal bands touch.
        assert bands_overlap(0.5e-9, 1.0)
        # Radii equal within eps: the EQ band sits at 0, 2.5e-9 below EC.
        assert not bands_overlap(1e-9, 1.5e-9)

    def test_precedence_when_bands_overlap(self):
        # Tiny disc k: the EC and TPP thresholds are closer than the band
        # width; EC wins at the shared distance.
        rk, rl = 0.4e-9, 1.0
        assert classify_discs(rl, rk, rl) is R.EC


class TestSerialization:
    def test_str_is_the_wire_label(self):
        assert str(R.NTPPI) == "NTPPI"
        assert R("TPP") is R.TPP
