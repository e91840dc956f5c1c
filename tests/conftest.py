"""Hypothesis draws the same examples on every run and machine, and keeps no example database."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
