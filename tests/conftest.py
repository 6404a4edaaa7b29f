import pytest

from padicslopes import _memo


@pytest.fixture(autouse=True)
def fresh_memos():
    """Every test starts with every registered memo empty, so a table
    cached by an earlier test cannot hide a monkeypatched
    ``lambda_raw_table`` or ``_digit_sums``."""
    _memo.reset()
