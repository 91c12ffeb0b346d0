"""Suite-wide Hypothesis profiles.

Tier-1 runs each property at the bounded size set on the test itself.
The nightly workflow passes ``--hypothesis-profile=nightly``; the
properties that opt in (they check ``settings.default`` against this
profile) then run its larger example count instead.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=400, deadline=None)
