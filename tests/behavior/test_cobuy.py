"""Co-buy simulator invariants."""

from repro.behavior import simulate_cobuy


def test_intentional_pairs_share_the_recorded_intent(world):
    log = simulate_cobuy(world, pairs_per_domain=40, seed=7)
    for pair in log.pairs:
        if pair.intent_id is None:
            continue
        product_a = world.catalog.get(pair.product_a)
        product_b = world.catalog.get(pair.product_b)
        assert pair.intent_id in product_a.intent_ids
        assert pair.intent_id in product_b.intent_ids
        assert product_a.product_type != product_b.product_type


def test_intentional_fraction_near_configured_rate(world):
    log = simulate_cobuy(world, pairs_per_domain=80, seed=7)
    intentional = sum(pair.intent_id is not None for pair in log.pairs)
    assert 0.65 <= intentional / len(log.pairs) <= 0.95


def test_degree_equals_sum_of_counts(world):
    log = simulate_cobuy(world, pairs_per_domain=30, seed=7)
    total_degree = sum(log.degree(p.product_id) for p in world.catalog.all())
    assert total_degree == 2 * sum(pair.count for pair in log.pairs)


def test_pairs_stay_within_domain(world):
    log = simulate_cobuy(world, pairs_per_domain=30, seed=7)
    for pair in log.pairs:
        assert world.catalog.get(pair.product_a).domain == pair.domain
        assert world.catalog.get(pair.product_b).domain == pair.domain


def test_counts_positive_and_for_domain_filter(world):
    log = simulate_cobuy(world, pairs_per_domain=30, seed=7)
    assert all(pair.count >= 1 for pair in log.pairs)
    electronics = log.for_domain("Electronics")
    assert electronics
    assert all(p.domain == "Electronics" for p in electronics)


def test_determinism(world):
    a = simulate_cobuy(world, pairs_per_domain=20, seed=9)
    b = simulate_cobuy(world, pairs_per_domain=20, seed=9)
    assert [p.pair_id for p in a.pairs] == [p.pair_id for p in b.pairs]
    assert [p.product_a for p in a.pairs] == [p.product_a for p in b.pairs]
