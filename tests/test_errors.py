import math

import pytest

from macrosize.errors import DomainError, require_nonnegative, require_positive


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_both_guards_reject_non_finite_and_negative(bad):
    for guard in (require_positive, require_nonnegative):
        with pytest.raises(DomainError, match=f"^x must be finite and .*, got {bad}$"):
            guard(ok=1.0, x=bad, y=math.nan)


def test_zero_is_nonnegative_but_not_positive():
    require_nonnegative(x=0.0, y=-0.0)
    with pytest.raises(DomainError, match="^x must be finite and positive, got 0.0$"):
        require_positive(x=0.0)


def test_finite_values_pass():
    require_positive(tiny=5e-324, huge=1.7976931348623157e308, whole=3)
