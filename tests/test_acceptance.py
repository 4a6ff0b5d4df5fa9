"""One end-to-end test per shipped capability.

Each test runs one named verification suite from `carnotlab.verify` and
asserts its verdict.  The suite's summary rows are printed so a failing
budget is visible directly in the test log.
"""

import pytest

from carnotlab import verify

CRITERIA = [
    (1, "group_algebra"),
    (2, "calculus"),
    (3, "heat_flow"),
    (4, "fokker_planck"),
    (5, "uniqueness_barrier"),
    (6, "particle_oracle"),
    (7, "flat_metric"),
    (8, "hamilton_jacobi"),
    (9, "mfg"),
    (10, "determinism"),
]


@pytest.mark.parametrize(
    "number,name",
    CRITERIA,
    ids=[f"criterion_{n:02d}_{s}" for n, s in CRITERIA],
)
def test_acceptance(number, name):
    result = verify.run_suite(name)
    print()
    for line in result.summary_lines():
        print(line)
    failing = [c.name for c in result.checks if not c.ok]
    assert result.passed, f"criterion {number} ({name}) failed: {failing}"


def test_registry_is_complete():
    assert [s for _, s in CRITERIA] == list(verify.SUITES)
    with pytest.raises(KeyError):
        verify.run_suite("not_a_suite")
