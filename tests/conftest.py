"""Test-session settings.

Property tests run derandomized and without the example database, so a
tier-1 result depends only on the code: every run draws the same examples,
and nothing a previous run found in a checkout's ``.hypothesis/`` directory
is replayed.  A witness worth keeping is pinned with ``@example``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
