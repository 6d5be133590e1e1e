"""Set-up shared by every test module."""

import warnings

# When a property test fails, hypothesis imports its patch writer.  On some
# installs that import raises a DeprecationWarning from one of its
# dependencies, which filterwarnings = ["error"] turns into an INTERNALERROR:
# the run stops there and the failure's own message is lost.  Importing the
# module once here, with that warning ignored, keeps a failing property test
# an ordinary failure; an install without it needs nothing.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
