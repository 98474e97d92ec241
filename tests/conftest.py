"""Hypothesis profiles: ``ci`` runs derandomized with a large example budget.

    HYPOTHESIS_PROFILE=ci python -m pytest -q tests/test_expr.py tests/test_count.py \
        tests/test_trace.py tests/test_metamorphic.py \
        -k "ball or shared or island_scans_equal or find_roots_many_equals or cycle_components_match \
            or circle_integrals_are_invariant"

Without ``HYPOTHESIS_PROFILE`` the default profile and budget apply.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=5000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
