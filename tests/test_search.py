import pytest

from bundle_auction_lab._search import golden_section_max


def test_keeps_the_best_point_seen_on_a_step_function():
    # The first midpoint 0.5 lands on a narrow step that the bracket then
    # leaves behind as it follows the slope up to 1.
    def f(x):
        return 1.0 if 0.49 < x < 0.51 else 0.5 * x

    assert golden_section_max(f, 0.0, 1.0) == (0.5, 1.0)


def test_ties_keep_the_smaller_point():
    # Every point ties with lo, which is evaluated first.
    assert golden_section_max(lambda x: 2.0, 0.25, 3.0) == (0.25, 2.0)


def test_degenerate_bracket():
    calls = []

    def f(x):
        calls.append(x)
        return -x * x

    assert golden_section_max(f, 0.7, 0.7) == (0.7, -(0.7 * 0.7))
    assert calls == [0.7, 0.7, 0.7]


def test_reversed_bracket_raises():
    with pytest.raises(ValueError, match="lo <= hi"):
        golden_section_max(lambda x: x, 1.0, 0.0)
