"""The deterministic sweep executor.

:class:`SweepExecutor` fans independent tasks out to worker processes
— or runs them in-process when ``workers=0``, the default and the
fallback the differential tests compare against.  The determinism
contract is simple and strict:

- tasks are **independent**: no task reads another's output, so they
  may run in any order on any worker;
- results are **merged in submission order**
  (:meth:`concurrent.futures.Executor.map` preserves it), so the
  caller sees exactly the list a serial ``[fn(x) for x in items]``
  would produce;
- each task is a pure function of its (picklable) spec — see
  :mod:`repro.exec.spec` — so ``workers=N`` output is byte-identical
  to ``workers=0`` output for every N.

The executor deliberately has no shared state, no callbacks and no
streaming: a sweep is submit-everything, collect-everything.  That is
what makes the serial backend a *semantic* fallback rather than a
degraded mode.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigError
from repro.exec.spec import RunSpec, execute_run, result_from_payload

_T = TypeVar("_T")
_R = TypeVar("_R")

__all__ = ["SweepExecutor"]


class SweepExecutor:
    """Run independent tasks serially or over a process pool.

    Args:
        workers: ``0`` (default) runs every task in-process, in order —
            no pool, no pickling, no subprocess cost.  ``N >= 1`` fans
            tasks out to ``N`` worker processes; submission order is
            preserved in the result list either way.
    """

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        self.workers = workers

    @property
    def parallel(self) -> bool:
        return self.workers > 0

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """``[fn(item) for item in items]``, possibly across processes.

        ``fn`` must be picklable (a module-level function, or a
        :func:`functools.partial` of one over picklable arguments) when
        ``workers > 0``.  A single-item batch always runs in-process —
        there is nothing to overlap, so the pool would be pure overhead.
        """
        items = list(items)
        if self.workers == 0 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))

    def run(self, specs: Sequence[RunSpec]) -> list:
        """Execute :class:`~repro.exec.spec.RunSpec` tasks, in order.

        Returns rehydrated results
        (:class:`~repro.core.session.CrawlResult` /
        :class:`~repro.core.parallel.ParallelResult`), one per spec.
        """
        return [result_from_payload(payload) for payload in self.map(execute_run, specs)]
