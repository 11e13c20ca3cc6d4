"""A multi-tenant job queue over one ``Session``.

Four tenants share one machine.  Their jobs wait in a priority queue and
run, highest priority first, through one long-lived
:class:`repro.api.Session`, which keeps one warm simulation per
structural group (device + grid + execution choices):

* Alice sweeps three bias points; Bob asks for one more bias on the same
  device and grid, so his job lands in Alice's group and reuses every
  open-boundary solve she paid for;
* Carol's grid is finer, a structural group of its own, so she pays her
  own boundary solves;
* Dave resubmits Alice's exact physics under another label.
  ``Workload.cache_key()`` ignores the label, so a plain dict of results
  answers him and he runs nothing.

The queue is a sorted list of ``(-priority, seq, workload)``: equal
priorities run first come, first served.

Run:  python examples/scheduler_service.py
"""

import bisect
import itertools

from repro.api import DeviceSpec, GridSpec, PhysicsSpec, Session, SweepAxis, Workload


def tenant_workload(name, bias=0.2, NE=8, points=None):
    return Workload(
        name=name,
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.2, e_max=1.2, NE=NE, Nkz=2, Nqz=2, Nw=2,
                      eta=1e-4),
        physics=PhysicsSpec(transport="ballistic", mu_left=bias / 2,
                            mu_right=-bias / 2),
        sweeps=(SweepAxis("bias", points),) if points else (),
    )


class JobQueue:
    """Priority-ordered jobs over one session, with a result cache."""

    def __init__(self, session):
        self.session = session
        self.pending = []  # sorted (-priority, seq, workload)
        self.results = {}  # workload.cache_key() -> SweepResult
        self._seq = itertools.count()

    def enqueue(self, workload, priority=0):
        bisect.insort(self.pending, (-priority, next(self._seq), workload))

    def drain(self):
        """Run every queued job; yield ``(workload, priority, result, hit)``.

        A hit is answered from the cache without touching the session.
        """
        while self.pending:
            neg_priority, _, workload = self.pending.pop(0)
            key = workload.cache_key()
            hit = key in self.results
            if not hit:
                self.results[key] = self.session.run(workload.compile())
            yield workload, -neg_priority, self.results[key], hit


def main():
    alice = tenant_workload("alice-iv", points=(0.0, 0.2, 0.4))
    bob = tenant_workload("bob-spot", bias=0.3)
    carol = tenant_workload("carol-fine", NE=12)
    dave = tenant_workload("dave-copy", points=(0.0, 0.2, 0.4))

    with Session(alice.compile()) as session:
        queue = JobQueue(session)
        # bob and carol queue first; alice's priority puts her ahead of them
        queue.enqueue(bob, priority=0)
        queue.enqueue(carol, priority=0)
        queue.enqueue(alice, priority=5)
        queue.enqueue(dave, priority=0)
        print(f"queued {len(queue.pending)} jobs from 4 tenants\n")

        print(f"{'order':>5} {'job':>12} {'priority':>8} {'solves':>7} "
              f"{'hits':>6}  cache")
        order, paid, hits = [], 0, 0
        for workload, priority, result, hit in queue.drain():
            # a cache hit ran nothing: it paid no boundary solve
            solves = 0 if hit else result.boundary_solves
            reused = 0 if hit else result.boundary_hits
            order.append(workload.name)
            paid += solves
            hits += hit
            print(f"{len(order):>5} {workload.name:>12} {priority:>8} "
                  f"{solves:>7} {reused:>6}  {'hit' if hit else 'miss'}")

        counters = session.reuse_counters()
        assert paid == counters["boundary_el_solves"] + counters[
            "boundary_ph_solves"]
        print(f"\nrun order            : {' > '.join(order)}")
        print(f"boundary solves paid : {paid} "
              "(bob reused alice's warm simulation)")
        print(f"cache hits           : {hits} (dave ran nothing)")
        print(f"structural groups    : {len(session)} "
              "(alice+bob+dave share one; carol's grid gets its own)")

        assert order == ["alice-iv", "bob-spot", "carol-fine", "dave-copy"]
        assert hits == 1 and len(session) == 2
    print("\njob queue sane: priority order, one cache hit, shared groups")


if __name__ == "__main__":
    main()
