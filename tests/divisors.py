"""Divisor lists by sieve, for tests that pass them to rep_quadratic_divisor's divisors=."""


def divisor_lists(limit: int) -> list:
    """lists[n] = sorted divisors of n, for all n <= limit (index 0 unused)."""
    lists: list = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            lists[m].append(d)
    return lists
