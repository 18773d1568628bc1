"""Page rounding of the arena's extents."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.arena import PAGE_BYTES, round_up


class TestRounding:
    def test_page_multiples_unchanged(self):
        assert round_up(PAGE_BYTES) == PAGE_BYTES
        assert round_up(3 * PAGE_BYTES) == 3 * PAGE_BYTES

    def test_rounds_up(self):
        assert round_up(1) == PAGE_BYTES
        assert round_up(PAGE_BYTES + 1) == 2 * PAGE_BYTES

    def test_zero(self):
        assert round_up(0) == 0

    @given(st.integers(1, 10**9))
    def test_always_at_least_request(self, n):
        assert round_up(n) >= n
        assert round_up(n) % PAGE_BYTES == 0
        assert round_up(n) - n < PAGE_BYTES

    def test_round_up_rejects_negative(self):
        with pytest.raises(ValueError, match="negative allocation"):
            round_up(-1)
