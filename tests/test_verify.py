"""The ``caputo-lk verify`` checks that no acceptance or oracle test runs.

Together with those tests, every registered check runs once per suite.
"""

from __future__ import annotations

import pytest

from caputo_lk.verify import run_check

OWN_CHECKS = [
    "polynomial reproduction (k <= 6)",
    "L1 convolution weights match the piecewise form",
    "monomial power rule against quadrature",
]


@pytest.mark.parametrize("name", OWN_CHECKS)
def test_check_passes(name):
    result = run_check(name)
    assert result.ok, result.detail
