"""Session simulator: Table 7 shape and structural invariants."""

from repro.behavior import SessionConfig, simulate_sessions
from repro.behavior.sessions import MAX_LENGTH, MIN_LENGTH


def _log(world, **overrides):
    config = SessionConfig(domain="Electronics", n_sessions=150, **overrides)
    return simulate_sessions(world, config, seed=3)


def test_session_lengths_within_bounds(world):
    log = _log(world, mean_length=18.0)
    for session in log.sessions:
        assert MIN_LENGTH <= len(session) <= MAX_LENGTH


def test_steps_reference_domain_items(world):
    log = _log(world)
    for session in log.sessions[:50]:
        for step in session.steps:
            product = world.catalog.get(step.item_id)
            assert product.domain == "Electronics"


def test_days_cover_week(world):
    log = _log(world)
    days = {session.day for session in log.sessions}
    assert days <= set(range(7))
    assert len(days) >= 5  # with 150 sessions every day should appear


def test_by_day_split_partitions(world):
    log = _log(world)
    train = log.by_day({0, 1, 2, 3, 4})
    dev = log.by_day({5})
    test = log.by_day({6})
    assert len(train) + len(dev) + len(test) == len(log)


def test_revision_rate_drives_unique_queries(world):
    low = simulate_sessions(
        world, SessionConfig(domain="Electronics", n_sessions=200, revise_prob=0.02), seed=4
    )
    high = simulate_sessions(
        world, SessionConfig(domain="Electronics", n_sessions=200, revise_prob=0.30), seed=4
    )
    assert high.stats()["avg_unique_queries"] > low.stats()["avg_unique_queries"]


def test_table7_shape_electronics_vs_clothing(world):
    clothing = simulate_sessions(
        world,
        SessionConfig(domain="Clothing, Shoes & Jewelry", n_sessions=200,
                      mean_length=8.8, revise_prob=0.06),
        seed=4,
    )
    electronics = simulate_sessions(
        world,
        SessionConfig(domain="Electronics", n_sessions=200,
                      mean_length=12.3, revise_prob=0.25),
        seed=4,
    )
    c_stats, e_stats = clothing.stats(), electronics.stats()
    assert e_stats["avg_session_len"] > c_stats["avg_session_len"]
    assert e_stats["avg_unique_queries"] > c_stats["avg_unique_queries"]


def test_step_intents_are_real(world):
    log = _log(world)
    for session in log.sessions[:30]:
        for step in session.steps:
            assert step.intent_id in world.intents
