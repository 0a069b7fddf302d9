"""Test configuration shared by every test module.

Property tests run under one ``hypothesis`` profile: derandomized, so that
a given version of the code and tests always draws the same examples, and
without a per-example deadline, since the speed of a shared machine can
swing by nearly 2x between runs."""

from hypothesis import settings

settings.register_profile("pagid", deadline=None, derandomize=True)
settings.load_profile("pagid")
