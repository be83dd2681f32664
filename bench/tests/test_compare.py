"""The ``--compare`` verdict rules."""

from compare import verdict

PARENT = [100.0 + i % 3 for i in range(10)]


def test_clear_gain_is_improved_in_either_direction():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "higher", 0.1) == ("improved", 10)
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "lower", 0.1) == ("improved", 10)


def test_same_runs_are_unchanged_and_a_loss_beyond_the_bound_regressed():
    assert verdict(PARENT, list(PARENT), "higher", 0.1)[0] == "unchanged"
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1)[0] == "regressed"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, [v * 0.95 for v in noisy], "higher", 0.1)[0] == "unresolved"


def test_fewer_than_ten_pairs_never_claim_a_gain():
    few = PARENT[:5]
    assert verdict(few, [v * 1.2 for v in few], "higher", 0.1)[0] == "unchanged"
