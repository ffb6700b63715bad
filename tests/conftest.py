from hypothesis import settings

# Reproducible property tests: a fixed example sequence, no time limit per
# example and no example database on disk.
settings.register_profile(
    "reproducible", derandomize=True, deadline=None, database=None
)
settings.load_profile("reproducible")
