"""Plan fingerprint: scheduler and compiler changes must not move a plan.

Two sha256 digests cover the fifo and batched plan hashes and the
``render_tree`` text of

- ``random_dag``: every ``random_dag`` seed 0-999. These DAGs are built
  without the compiler, so only a scheduler change can move this digest;
- ``campaign``: the Li2SO4 campaign at 1..24 and 48 points with mixed fill
  volumes, compiled from its template as ``plan`` compiles it, so a
  lowering change moves it too. Each DAG is checked to be that of the
  expanded spec, node order included.

A speed-up that reorders a single assignment, or a tie broken another way,
changes a digest. A change that is meant to move plans must say so and
update the constant of the digest it moves.
"""

import hashlib

from eaclab.compiler import compile_spec, render_tree
from eaclab.scheduler import plan_hash, schedule
from eaclab.specmodel import expand_sweeps

from workloads import campaign_template, random_dag

PLAN_FINGERPRINTS = {
    "random_dag": "be5879fbd4a11a5c0213639b81f8879a51376816d13495f750985944def28015",
    "campaign": "6df3ec92162ba4056e340a28f7e0e0ff24f38b4f4713a1a042fe7785dad1e60a",
}


def _instances():
    for seed in range(1000):
        dag, state, registry = random_dag(seed)
        yield "random_dag", f"random_dag:{seed}", dag, state, registry
    for n in [*range(1, 25), 48]:
        template, registry, state = campaign_template(n)
        dag = compile_spec(template, registry, state)
        expanded = compile_spec(expand_sweeps(template), registry, state)
        assert list(dag.nodes) == list(expanded.nodes) and dag == expanded
        yield "campaign", f"campaign:{n}", dag, state, registry


def fingerprints() -> dict[str, str]:
    digests = {group: hashlib.sha256() for group in PLAN_FINGERPRINTS}
    for group, name, dag, state, registry in _instances():
        fifo = plan_hash(schedule(dag, state, registry, policy="fifo"))
        batched = plan_hash(schedule(dag, state, registry, policy="batched"))
        line = f"{name} {fifo} {batched}\n{render_tree(dag)}\n"
        digests[group].update(line.encode("utf-8"))
    return {group: digest.hexdigest() for group, digest in digests.items()}


def test_plan_fingerprint_is_unchanged():
    assert fingerprints() == PLAN_FINGERPRINTS
