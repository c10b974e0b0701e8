"""Suite-wide test configuration: the Hypothesis profiles.

Tier-1 runs under ``tier1``: derandomized, so every run draws the same
examples and a lucky or unlucky random draw can never change the
verdict.  The ``deep-fuzz`` profile draws fresh random examples on
every run; select it with ``--hypothesis-profile deep-fuzz`` (the CI
``deep-fuzz`` job runs the Hypothesis suites under it, round after
round).
"""

from hypothesis import HealthCheck, settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile(
    "deep-fuzz",
    derandomize=False,
    max_examples=2000,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tier1")
