import pathlib
import sys

import hypothesis

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# every property test is reproducible and leaves no example database behind;
# the decorators set only their example budget
hypothesis.settings.register_profile("dyckarea", derandomize=True, database=None, deadline=None)
hypothesis.settings.load_profile("dyckarea")
