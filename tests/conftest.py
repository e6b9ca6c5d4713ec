"""Shared test settings.

Property tests run with a fixed example sequence and no per-example
deadline, so a failure reproduces exactly and a slow host cannot fail one.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
