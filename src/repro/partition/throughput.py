"""Throughput-oriented baseline (paper §IV-B and Fig. 21).

Prior inter-application partitioning schemes (Suh et al. and followers)
assign cache to whichever thread *best utilises* it, maximising aggregate
throughput — equivalently, minimising the total number of misses across
all sharers.  Applied inside one application (the comparison the paper
makes in Fig. 21), this is exactly the wrong objective: it happily speeds
up already-fast, cache-friendly threads while the critical-path thread
starves.

Implementation: the same runtime model bank as the paper's scheme, but the
metric is per-thread misses-per-kilo-instruction (MPKI) and the decision
is a marginal-utility hill climb from the current assignment: move single
ways from the thread that loses least to the thread that gains most while
the predicted total miss count strictly improves.  Hill-climbing is
equivalent to the classic greedy allocation when the miss curves are
convex, which is the standard assumption of those schemes.

Bootstrap mirrors the paper's scheme for symmetry: equal partition first,
then miss-proportional partitioning while the models warm up.
"""

from __future__ import annotations

import functools

from repro.core.models import ThreadModelBank
from repro.core.records import IntervalObservation
from repro.mathx.rounding import largest_remainder_apportion
from repro.partition.base import PartitioningPolicy

__all__ = ["ThroughputOrientedPolicy", "greedy_min_total_misses"]


def greedy_min_total_misses(
    bank: ThreadModelBank,
    start_ways: list[int],
    total_ways: int,
    *,
    min_ways: int = 1,
) -> list[int]:
    """Single-way hill climb minimising the predicted MPKI sum.

    Starting from the *current* assignment, repeatedly move one way from
    the thread whose model predicts the smallest loss for giving one up to
    the thread whose model predicts the largest gain for receiving one,
    while the predicted total strictly improves.  Starting from the
    current point (rather than re-allocating from scratch) keeps the
    scheme honest about model quality: each thread's model is accurate
    near the way counts it actually runs at, which is also how a
    shadow-tag utility-monitor scheme behaves — it never teleports a
    thread to an operating point its monitor has no data for.
    """
    n = bank.n_threads
    ways = [int(w) for w in start_ways]
    if sum(ways) != total_ways:
        raise ValueError(f"start_ways {ways} do not sum to {total_ways}")
    models = [bank.model(t) for t in range(n)]

    # The models cannot change during the climb, which revisits the same
    # (thread, ways) points again and again: evaluate each one once.
    @functools.cache
    def predict(t: int, w: int) -> float:
        return float(models[t](float(w)))

    for _ in range(total_ways + 1):
        best = None  # (net_gain, receiver, donor)
        for recv in range(n):
            gain = predict(recv, ways[recv]) - predict(recv, ways[recv] + 1)
            for donor in range(n):
                if donor == recv or ways[donor] <= min_ways:
                    continue
                loss = predict(donor, ways[donor] - 1) - predict(donor, ways[donor])
                net = gain - loss
                if best is None or net > best[0]:
                    best = (net, recv, donor)
        if best is None or best[0] <= 1e-12:
            break
        _, recv, donor = best
        ways[recv] += 1
        ways[donor] -= 1
    assert sum(ways) == total_ways
    return ways


class ThroughputOrientedPolicy(PartitioningPolicy):
    """Minimise total predicted misses, ignoring thread criticality."""

    def __init__(
        self,
        n_threads: int,
        total_ways: int,
        *,
        min_ways: int = 1,
        bootstrap_intervals: int = 2,
        alpha: float = 0.5,
    ) -> None:
        super().__init__(n_threads, total_ways, min_ways=min_ways)
        self.bootstrap_intervals = bootstrap_intervals
        self.bank = ThreadModelBank(n_threads, alpha=alpha)
        self._intervals_seen = 0

    @property
    def name(self) -> str:
        return "throughput"

    def on_interval(self, obs: IntervalObservation) -> list[int] | None:
        mpki = []
        for t in range(self.n_threads):
            instr = obs.instructions[t]
            m = obs.l2.misses[t] / (instr / 1000.0) if instr > 0 else 0.0
            mpki.append(m)
            if instr > 0:
                self.bank.observe(t, obs.targets[t], m)
        self._intervals_seen += 1

        if self._intervals_seen <= self.bootstrap_intervals or any(
            self.bank.n_distinct(t) == 0 for t in range(self.n_threads)
        ):
            return self._validate(
                largest_remainder_apportion(mpki, self.total_ways, minimum=self.min_ways)
            )

        return self._validate(
            greedy_min_total_misses(
                self.bank, list(obs.targets), self.total_ways, min_ways=self.min_ways
            )
        )

    def reset(self) -> None:
        self.bank.reset()
        self._intervals_seen = 0
