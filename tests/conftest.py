import pytest

from padicslopes import lemma_checks


@pytest.fixture(autouse=True)
def fresh_table_memos():
    """Every test starts with empty Lambda-table memos, so a table cached by
    an earlier test cannot hide a monkeypatched ``lambda_raw_table``."""
    lemma_checks.clear_table_memos()
