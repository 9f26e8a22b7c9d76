"""The scrape grid: every crossed ``k * interval_s`` point once, in order."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ScrapeGrid


def test_due_returns_every_crossed_grid_point_once():
    grid = ScrapeGrid(0.5)
    assert grid.due(0.4) == []
    # A big time jump yields all intervening grid points, in order.
    assert grid.due(1.6) == [0.5, 1.0, 1.5]
    assert grid.due(1.6) == []  # idempotent at the same time
    assert grid.due(2.0) == [2.0]


def test_scrape_timestamps_must_increase():
    grid = ScrapeGrid(1.0)
    assert grid.due(2.0) == [1.0, 2.0]
    assert grid.due(1.0) == []  # an earlier clock reading repeats nothing
    assert grid.due(3.0) == [3.0]
    for interval_s in (0.0, -1.0):
        with pytest.raises(ValueError, match="interval_s"):
            ScrapeGrid(interval_s)


@given(st.floats(min_value=0.01, max_value=2.0),
       st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=40))
@settings(max_examples=200, deadline=None)
def test_due_over_any_clock_is_the_closed_form_grid(interval_s, readings):
    grid = ScrapeGrid(interval_s)
    seen = [ts for now in sorted(readings) for ts in grid.due(now)]
    last = max(readings, default=0.0)
    assert seen == [k * interval_s for k in
                    range(1, math.floor(last / interval_s + 1e-9) + 1)]
