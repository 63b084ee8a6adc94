import pytest

from first_draw import assert_shares_match, first_draw_shares


def staircase(cuts):
    """A fake kernel: its draw takes one uniform, and the outcome is that of
    the last (start, outcome) in ``cuts`` starting at or below it."""
    drawn = []

    def run(rng):
        u = rng.random()
        drawn[:] = [next(k for start, k in reversed(cuts) if start <= u)]
        rng.random()  # the next draw ends the script

    return run, lambda: drawn[0]


def test_shares_sum_each_outcomes_intervals():
    # outcome 0 owns two intervals, as a SparseLDA topic does in its q
    # bucket and in the s + r walk
    shares = first_draw_shares(*staircase([(0.0, 0), (0.3, 1), (0.5, 0), (0.9, 2)]))
    assert shares == pytest.approx({0: 0.7, 1: 0.2, 2: 0.1}, rel=1e-15)
    assert_shares_match(shares, [7, 2, 1])


def test_a_piece_no_probe_finds_fails_loudly():
    # outcome 3 holds 1e-9 of [0, 1) between two probes that both read 0
    hidden = staircase([(0.0, 0), (0.6001, 3), (0.6001 + 1e-9, 0), (0.9, 2)])
    shares = first_draw_shares(*hidden)
    assert 3 not in shares
    with pytest.raises(AssertionError, match=r"no interval found for outcomes \[3\]"):
        assert_shares_match(shares, [0.9 - 1e-9, 0.0, 0.1, 1e-9])
