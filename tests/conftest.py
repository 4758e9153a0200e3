"""Shared test configuration.

Every run, local or CI, uses one hypothesis profile: it prints the blob that
reproduces a failing example (``@reproduce_failure``) and sets no deadline,
since machines vary in speed.
"""

from hypothesis import settings

settings.register_profile("zlattice", print_blob=True, deadline=None)
settings.load_profile("zlattice")
