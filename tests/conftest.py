"""Session settings: hypothesis draws the same examples on every run."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
    settings.load_profile("derandomized")
