"""The multi-tenant scheduler service, end to end.

Four tenants share one machine.  Alice and Bob run bias points of the
same device on the same grid — structurally identical workloads, so they
share one resident simulation and Bob inherits Alice's open-boundary
solves for free.  Carol's grid differs (her own structural group), so
she pays her own boundary bill.  Dave resubmits Alice's exact physics
under a different label and is served from the content-addressed result
cache without touching a rank at all.

Along the way: jobs are priced with the Table-3 flop model while
planning, executed strictly in priority order, and every result carries
a ``service`` block (cache outcome, priced vs executed flops, measured
boundary solves and hits) that serializes with it.

Run:  python examples/scheduler_service.py
"""

import json

from repro.api import DeviceSpec, GridSpec, PhysicsSpec, SweepAxis, Workload
from repro.service import ResultCache, SchedulerService


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


def main():
    w_alice = tenant_workload("alice-iv", points=(0.0, 0.2, 0.4))
    w_bob = tenant_workload("bob-spot", bias=0.3)
    w_carol = tenant_workload("carol-fine", NE=12)
    w_dave = tenant_workload("dave-copy", points=(0.0, 0.2, 0.4))

    with SchedulerService(cache=ResultCache(max_entries=32)) as svc:
        # -- submission: four tenants, mixed priorities ------------------
        alice = svc.submit(w_alice, tenant="alice", priority=5)
        bob = svc.submit(w_bob, tenant="bob", priority=0)
        carol = svc.submit(w_carol, tenant="carol", priority=0)
        # dave resubmits alice's exact physics under a different label
        dave = svc.submit(w_dave, tenant="dave", priority=0)
        print(f"queued {len(svc.jobs())} jobs from 4 tenants\n")

        # -- one drain: plan, cache-probe, execute in priority order -----
        svc.drain()
        print(f"{'job':>12} {'tenant':>7} {'state':>7} "
              f"{'solves':>7} {'hits':>6}  cache")
        for job in svc.jobs():
            s = job.result.service
            print(f"{job.workload.name:>12} {job.tenant:>7} {job.state:>7} "
                  f"{s['boundary_solves']:>7} {s['boundary_hits']:>6}  "
                  f"{s['cache']}")

        # -- what sharing bought ----------------------------------------
        stats = svc.stats()
        print(f"\nboundary solves paid : {stats['boundary_solves']} "
              "(bob reused alice's warm simulation)")
        print(f"cache hits           : {stats['cache']['hits']} "
              "(dave ran nothing)")
        print(f"structural groups    : {stats['groups']} "
              "(alice+bob+dave share one; carol's grid gets its own)")

        # the service block travels with the serialized result
        blob = json.loads(bob.result.to_json())["service"]
        print(f"\nbob's serialized service block: "
              f"solves={blob['boundary_solves']}, hits={blob['boundary_hits']}")

        assert dave.state == "CACHED" and blob["boundary_solves"] == 0
        assert blob["boundary_hits"] > 0 and stats["groups"] == 2
        assert alice.metrics["exec_order"] == 1  # priority 5 ran first
        print("\nscheduler service sane: sharing, caching, priority order")


if __name__ == "__main__":
    main()
