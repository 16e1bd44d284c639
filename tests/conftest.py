"""Hypothesis settings for every property test in the suite.

Derandomized, with no example database: each run draws the same examples,
whatever earlier runs found, so the suite is repeatable. A test sets only
its own example count on top of these.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ttlr",
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ttlr")
