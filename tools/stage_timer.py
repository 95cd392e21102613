"""The stage timer of tools/cell_profile.py and tools/count_profile.py.

A stage costs its wall seconds and the user and system seconds and minor page
faults that `getrusage` reports for this process, summed over its runs.  The
report prints a row per stage with the process's peak RSS at the stage's last
end, then the total from the timer's start to the last stage's end.
"""

import contextlib
import resource
import time


def _usage():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)


def _delta(start, end) -> list:
    (t0, r0), (t1, r1) = start, end
    return [t1 - t0, r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime,
            r1.ru_minflt - r0.ru_minflt]


class StageTimer:
    """The costs of the stages `names`, reported in that order in a first column `width` wide."""

    def __init__(self, names, width: int):
        self.width, self.peak = width, {}
        self.costs = {name: [0.0, 0.0, 0.0, 0] for name in names}
        self.begin = self.end = _usage()

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = _usage()
        yield
        self.end = _usage()
        self.costs[name] = [a + b for a, b in zip(self.costs[name], _delta(start, self.end))]
        self.peak[name] = self.end[1].ru_maxrss / 1024

    def steps(self, name: str, items):
        """The items of an iterator, each step of it timed as stage `name`."""
        while True:
            with self(name):
                item = next(items, None)
            if item is None:
                return
            yield item

    def report(self) -> None:
        print(f"{'stage':<{self.width}} {'wall_s':>8} {'user_s':>8} {'sys_s':>8} {'minflt':>9} "
              f"{'peak_mb':>8}")
        rows = [(name, cost, self.peak[name]) for name, cost in self.costs.items()]
        rows.append(("total", _delta(self.begin, self.end), self.end[1].ru_maxrss / 1024))
        for name, (wall, user, sys_s, minflt), peak in rows:
            print(f"{name:<{self.width}} {wall:8.3f} {user:8.3f} {sys_s:8.3f} {minflt:9d} "
                  f"{peak:8.1f}")
