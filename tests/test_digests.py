"""tests/digests.json and tests/record_digests.py agree: the file holds
exactly the tables the script records, each table's test module loads it
and has its entry function, and the script recomputes an entry of each
table (the digest tests recompute all of them)."""

import importlib

import pytest

import record_digests


def test_the_file_holds_every_recorded_table():
    assert set(record_digests.load_all()) == set(record_digests.TABLES)


@pytest.mark.parametrize("table", sorted(record_digests.TABLES))
def test_each_table_is_loaded_and_recomputed(table):
    module_name, name = table.split(".")
    module = importlib.import_module(module_name)
    recorded = record_digests.load_digests(table)
    assert getattr(module, name) == recorded
    assert callable(getattr(module, record_digests.TABLES[table]))
    key = min(recorded)
    assert record_digests.compute(table, key) == recorded[key]
