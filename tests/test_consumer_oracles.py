"""The gate entries of the match-set consumers (counts, facets, field
and expression sorts, groups, drill-sideways, diversified top-k, block
joins and query-time joins) against their DuckDB oracles on sf0.001,
through the per-entry check of ``tools/check_oracles.py``."""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"
ENTRIES = (
    "facet_lang",
    "facet_multivalued",
    "facet_ranges",
    "facet_taxonomy",
    "sort_by_field",
    "sort_by_field_page2",
    "sort_by_ts",
    "sort_by_string",
    "sort_by_field_indexsorted",
    "sort_multi",
    "expression_sort",
    "grouped_topk",
    "drill_sideways",
    "diversified_topk",
    "block_join_topk",
    "block_join_total",
    "block_join_children",
    "join_search",
    "hit_count",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def gate(ray_session):
    """(check_oracles module, entries, oracle SQL, DuckDB connection)."""
    tool = _load("tools/check_oracles")
    entry = _load("__ray_entry__")
    return tool, entry.queries(), entry.oracle_sql(), tool.connect(SF)


@pytest.mark.parametrize("name", ENTRIES)
def test_entry_matches_oracle(gate, name):
    tool, queries, sqls, con = gate
    ok, report = tool.check_entry(name, queries[name], sqls[name], con, SF)
    assert ok, report
