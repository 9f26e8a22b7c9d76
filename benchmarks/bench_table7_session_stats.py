"""Table 7: session-dataset statistics for clothing and electronics.

Paper shape: electronics sessions are longer (12.27 vs 8.79) and contain
more unique queries (2.47 vs 1.36) than clothing — the query-revision
dynamics §4.2.4 links to COSMO-GNN's larger electronics gain.
"""

import pytest
from conftest import publish

from repro.apps.recommendation import build_session_dataset
from repro.behavior import SessionConfig, World, WorldConfig, simulate_sessions
from repro.reporting import Table, format_float

# The session world is bigger than the shared bench world so the
# recommendation task has a realistic item space.
SESSION_WORLD = WorldConfig(seed=7, products_per_domain=150,
                            broad_queries_per_domain=30, specific_queries_per_domain=30)

SESSION_CONFIGS = {
    "clothing": SessionConfig(domain="Clothing, Shoes & Jewelry", n_sessions=1500,
                              mean_length=8.8, revise_prob=0.06),
    "electronics": SessionConfig(domain="Electronics", n_sessions=1500,
                                 mean_length=12.3, revise_prob=0.28),
}

PAPER_STATS = {
    "clothing": {"avg_session_len": 8.79, "avg_unique_queries": 1.36},
    "electronics": {"avg_session_len": 12.27, "avg_unique_queries": 2.47},
}


@pytest.fixture(scope="session")
def session_world():
    return World(SESSION_WORLD)


@pytest.fixture(scope="session")
def session_logs(session_world):
    return {
        name: simulate_sessions(session_world, config, seed=7)
        for name, config in SESSION_CONFIGS.items()
    }


def test_table7_session_statistics(session_logs):
    table = Table("Table 7 — session statistics (paper vs measured)",
                  ["Domain", "Sessions", "Avg Sess. L. (paper)",
                   "Avg Q. L.", "Avg Uniq. Q. (paper)"])
    for name, log in session_logs.items():
        stats = log.stats()
        paper = PAPER_STATS[name]
        table.add_row(
            name,
            stats["sessions"],
            f"{format_float(stats['avg_session_len'])} ({paper['avg_session_len']})",
            format_float(stats["avg_query_len"]),
            f"{format_float(stats['avg_unique_queries'])} ({paper['avg_unique_queries']})",
        )
    publish("table7_session_stats", table.render())

    clothing = session_logs["clothing"].stats()
    electronics = session_logs["electronics"].stats()
    # Paper shape: electronics longer sessions, more unique queries.
    assert electronics["avg_session_len"] > clothing["avg_session_len"]
    assert electronics["avg_unique_queries"] > clothing["avg_unique_queries"]
    # Calibration within ~20% of the paper's absolute statistics.
    assert abs(clothing["avg_session_len"] - 8.79) < 1.8
    assert abs(electronics["avg_session_len"] - 12.27) < 2.4
    assert abs(electronics["avg_unique_queries"] - 2.47) < 0.8


def test_day_split_shapes(session_logs):
    for log in session_logs.values():
        dataset = build_session_dataset(log, max_len=10)
        assert len(dataset.train) > len(dataset.dev)
        assert len(dataset.train) > len(dataset.test)
