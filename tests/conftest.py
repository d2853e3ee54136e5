from hypothesis import settings

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline) so the suite stays deterministic and bounded.
settings.register_profile("roclab", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("roclab")
