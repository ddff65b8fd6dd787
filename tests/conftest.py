"""Shared test settings: every hypothesis property test runs from a fixed
derandomized example set with no per-example deadline, so the suite's
outcome does not depend on the run or the machine's speed."""

from hypothesis import settings

settings.register_profile("simojed", derandomize=True, deadline=None)
settings.load_profile("simojed")
