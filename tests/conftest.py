"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests
derandomised and deadline-free, so they cannot flake between runs."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
