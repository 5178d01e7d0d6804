import time
import warnings

# hypothesis's pytest plugin imports this module when a @given test fails.
# It pulls in libcst and mypy_extensions, whose DeprecationWarning is an
# error under filterwarnings = ["error"] and would abort the whole run
# before the falsifying example is shown.  Import it once, here, with
# warnings silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

_started = None


def pytest_sessionstart(session):
    global _started
    _started = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    if _started is not None:
        elapsed = time.perf_counter() - _started
        print(f"\nfull suite wall clock: {elapsed:.1f}s (budget: 60s)")
