import pytest

from padicslopes import _memo


@pytest.fixture(autouse=True)
def fresh_memos():
    """Every test starts with every registered memo empty, so a table or
    verdict cached by an earlier test cannot hide a monkeypatched
    ``lambda_raw_table``, ``_carry_matrix`` or ``rank_mod_p``."""
    _memo.reset()
