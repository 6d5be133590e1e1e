"""The reach map's own check: it sees the functions a suite runs, and only those."""

import reach
from tqps import cli


def test_verify_psi_reaches_the_gluing_and_no_product():
    calls = reach.reached(lambda: cli.main(["verify", "psi", "--n", "2"]))
    assert ("tqps.tensor_gluing", "psi") in calls
    assert ("tqps.tensor_gluing", "_move_circle") in calls
    # a decorated def is found by its decorator line or its def line
    assert ("tqps.tensor_gluing", "TensorElement._trusted") in calls
    assert ("tqps.tensor_gluing", "TensorElement.__mul__") not in calls
