"""Hypothesis profiles for the fuzz tests, which take their example count from it.

``dev`` is loaded by default and keeps tier-1 quick. ``ci`` runs many more
examples: ``python -m pytest tests/test_format_fuzz.py tests/test_text_fuzz.py
--hypothesis-profile=ci``. Tests that set their own ``max_examples`` keep it.
"""

from hypothesis import settings

settings.register_profile("dev", max_examples=40, deadline=None)
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile("dev")
