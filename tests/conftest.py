"""Hypothesis profiles.  `--hypothesis-profile=ci` draws the same examples
on every run, so a CI result does not depend on the luck of a draw; local
runs keep the default profile and its random draws.  Each test's own
max_examples stands in both."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
