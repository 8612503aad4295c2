"""Shared test settings.

Property tests run under one derandomized ``hypothesis`` profile: the same
examples in the same order on every run, and no example database, so the
suite stays deterministic.
"""

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ssaid", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("ssaid")
