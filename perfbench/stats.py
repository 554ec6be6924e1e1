"""Statistics of the OSCAR benchmark: medians, tails, failure shares,
run-to-run spread and trace coverage. Pure functions over plain lists,
tested by test_stats.py."""

import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

# A traced reconstruction whose stage spans cover less than this share
# of its wall time is flagged: the trace no longer explains the time.
MIN_COVERAGE = 0.95


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond), or None when there are
    too few samples for any such percentile.
    """
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def error_share(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Inter-quartile range as a share of the median: the statistic the
    benchmark's bounds are checked against."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def durations(spans, name):
    """Durations (s) of every span called `name`.

    `spans` is a list of [parent, name, start, end]; a span's id is its
    position in the list.
    """
    return [end - start for _, n, start, end in spans if n == name]


def gap_shares(spans, root="core.reconstruct"):
    """Per `root` span: the share of its wall time its direct children
    do not cover (children run one after another)."""
    covered = {}
    for parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    shares = []
    for i, (_, name, start, end) in enumerate(spans):
        if name != root:
            continue
        wall = end - start
        if wall <= 0.0:
            continue
        shares.append(max(0.0, 1.0 - covered.get(i, 0.0) / wall))
    return shares


def gap_report(spans, root="core.reconstruct"):
    """(median gap share, flagged): flagged when the stage spans cover
    less than MIN_COVERAGE of the median traced reconstruction."""
    shares = gap_shares(spans, root)
    if not shares:
        return None, True
    gap = median(shares)
    return gap, gap > 1.0 - MIN_COVERAGE
