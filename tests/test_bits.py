"""Bit strings: joining parts."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.bits import Bits, concat_all

# a part of 0..70 bits (zero-length parts included) with any value that fits
parts = st.integers(0, 70).flatmap(
    lambda length: st.builds(Bits, st.integers(0, (1 << length) - 1), st.just(length)))


class TestConcatAll:
    @given(st.lists(parts, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_equals_chained_concat(self, pieces):
        assert concat_all(pieces) == functools.reduce(Bits.concat, pieces, Bits(0, 0))

    def test_empty_and_zero_length_parts(self):
        assert concat_all([]) == Bits(0, 0)
        assert concat_all([Bits(0, 0), Bits(5, 3), Bits(0, 0)]) == Bits(5, 3)
        assert concat_all([Bits(0, 2), Bits(1, 1)]) == Bits(1, 3)

    def test_accepts_any_iterable(self):
        assert concat_all(iter([Bits(1, 1), Bits(2, 2)])) == Bits(6, 3)
