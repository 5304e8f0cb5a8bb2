"""Tests for the scalar rectangle-union coverage oracle."""

from hypothesis import given, strategies as st

from repro.geometry.rect import Rect
from repro.geometry.regioncover import is_covered

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def rect(draw):
    a, b = draw(unit), draw(unit)
    c, d = draw(unit), draw(unit)
    return Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))


class TestIsCovered:
    def test_no_covers(self):
        assert not is_covered(Rect.unit(2), [])

    def test_single_full_cover(self):
        assert is_covered(Rect((0.2, 0.2), (0.4, 0.4)), [Rect.unit(2)])

    def test_single_partial_cover(self):
        assert not is_covered(Rect.unit(2), [Rect((0.0, 0.0), (0.5, 1.0))])

    def test_two_halves_cover(self):
        halves = [Rect((0.0, 0.0), (0.5, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))]
        assert is_covered(Rect.unit(2), halves)

    def test_two_halves_with_gap(self):
        parts = [Rect((0.0, 0.0), (0.49, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))]
        assert not is_covered(Rect.unit(2), parts)

    def test_quadrants(self):
        quadrants = [
            Rect((0.0, 0.0), (0.5, 0.5)),
            Rect((0.5, 0.0), (1.0, 0.5)),
            Rect((0.0, 0.5), (0.5, 1.0)),
            Rect((0.5, 0.5), (1.0, 1.0)),
        ]
        assert is_covered(Rect.unit(2), quadrants)
        assert not is_covered(Rect.unit(2), quadrants[:3])

    def test_l_shaped_cover(self):
        covers = [Rect((0.0, 0.0), (1.0, 0.6)), Rect((0.0, 0.4), (0.5, 1.0))]
        assert is_covered(Rect((0.0, 0.0), (0.5, 1.0)), covers)
        assert not is_covered(Rect((0.0, 0.0), (0.7, 1.0)), covers)

    def test_degenerate_target(self):
        line = Rect((0.2, 0.0), (0.2, 1.0))
        assert is_covered(line, [Rect((0.1, 0.0), (0.3, 1.0))])
        assert not is_covered(line, [Rect((0.3, 0.0), (0.5, 1.0))])

    def test_disjoint_covers_ignored(self):
        assert not is_covered(
            Rect((0.0, 0.0), (0.1, 0.1)), [Rect((0.8, 0.8), (0.9, 0.9))]
        )

    @given(rect(), st.lists(rect(), max_size=5))
    def test_never_false_positive(self, target, covers):
        """If reported covered, dense sample points must all be covered."""
        if not is_covered(target, covers):
            return
        steps = 7
        for i in range(steps + 1):
            for j in range(steps + 1):
                p = (
                    min(target.lo[0] + (target.hi[0] - target.lo[0]) * i / steps,
                        target.hi[0]),
                    min(target.lo[1] + (target.hi[1] - target.lo[1]) * j / steps,
                        target.hi[1]),
                )
                assert any(c.contains_point(p) for c in covers)

    @given(rect())
    def test_self_cover(self, target):
        assert is_covered(target, [target])
