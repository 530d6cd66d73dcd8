"""Plan fingerprint: scheduler and compiler changes must not move a plan.

One sha256 covers the fifo and batched plan hashes and the ``render_tree``
text of every ``random_dag`` seed 0-999 and of the Li2SO4 campaign at
1..24 and 48 points with mixed fill volumes. A speed-up that reorders a
single assignment, or a tie broken another way, changes the digest. A
change that is meant to move plans must say so and update the constant.
"""

import hashlib

from eaclab.compiler import compile_spec, render_tree
from eaclab.scheduler import plan_hash, schedule

from workloads import campaign_workload, random_dag

PLAN_FINGERPRINT = "b9624114d38883045369552a3cc7ebe83fc41418748881f0c6f174ed5a459424"


def _instances():
    for seed in range(1000):
        dag, state, registry = random_dag(seed)
        yield f"random_dag:{seed}", dag, state, registry
    for n in [*range(1, 25), 48]:
        spec, registry, state = campaign_workload(n)
        yield f"campaign:{n}", compile_spec(spec, registry, state), state, registry


def fingerprint() -> str:
    digest = hashlib.sha256()
    for name, dag, state, registry in _instances():
        fifo = plan_hash(schedule(dag, state, registry, policy="fifo"))
        batched = plan_hash(schedule(dag, state, registry, policy="batched"))
        line = f"{name} {fifo} {batched}\n{render_tree(dag)}\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def test_plan_fingerprint_is_unchanged():
    assert fingerprint() == PLAN_FINGERPRINT
