"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests
derandomised and deadline-free, so they cannot flake between runs.
``wide_grid`` is a grid that several test modules import from here."""
import os

from hypothesis import settings

from loschmidt.qgrid import Grid

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def wide_grid(state, points):
    """The grid with ``points`` per axis on the box that covers every
    component of ``state`` to 16 widths, twice the derived grid's 8: room
    for packets that move."""
    comps = state.components
    return Grid(tuple(
        (min(c.center_q[d] - 16.0 * c.sigma[d] for c in comps),
         max(c.center_q[d] + 16.0 * c.sigma[d] for c in comps))
        for d in range(state.dims)
    ), (points,) * state.dims)
