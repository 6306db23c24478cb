"""Test-wide settings: property-based tests run derandomized and write nothing.

``derandomize`` makes every run draw the same examples, ``database=None``
keeps hypothesis from storing failing examples, and ``deadline=None`` keeps a
slow machine from failing an example on time.  Hypothesis also caches the
constants it reads from the source under its storage directory, with or
without a database, so that directory is a temporary one instead of
``.hypothesis/`` in the working directory; it is removed when the session
ends.
"""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="twa-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage.name

settings.register_profile("twa", derandomize=True, deadline=None, database=None)
settings.load_profile("twa")


def pytest_sessionfinish(session, exitstatus):
    _storage.cleanup()
