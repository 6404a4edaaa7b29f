import pytest

from padicslopes import combinatorics, lemma_checks


@pytest.fixture(autouse=True)
def fresh_table_memos():
    """Every test starts with empty Lambda-table and carry-rank memos, so a
    table or verdict cached by an earlier test cannot hide a monkeypatched
    ``lambda_raw_table``, ``_carry_matrix`` or ``rank_mod_p``."""
    lemma_checks.clear_table_memos()
    combinatorics.clear_rank_memo()
