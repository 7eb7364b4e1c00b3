"""Hypothesis profiles. Tier-1 runs hypothesis's default profile. The deep
property run, ``pytest tests/test_properties.py --hypothesis-profile=deep``,
takes ten times the examples: each test scales its own example count by
DEPTH, the active profile's max_examples over the default profile's."""

from hypothesis import settings

settings.register_profile("deep", max_examples=10 * settings.get_profile("default").max_examples)
