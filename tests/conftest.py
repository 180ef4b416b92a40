"""Hypothesis profiles.  ``--hypothesis-profile=ci`` draws the same examples
on every run and keeps no example database, so a CI verdict does not depend
on earlier runs; local runs keep hypothesis's defaults."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
