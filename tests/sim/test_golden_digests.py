"""Golden replay digests: the byte-identical contract of the sim core.

Each hash below is the structural digest of the full system state (clock,
event counts, RNG draw history, fabric counters, analyzer windows, control
plane) after a FROZEN scenario from ``repro.analysis.runtime`` runs to
completion.  They were captured *before* the sim-core fast path (calendar
queue, pooling, fault-free forwarding) landed, so these tests pin today's
implementation to the original heapq-engine behaviour bit for bit.

If one of these fails, an engine/fabric/pooling change altered event
ordering, RNG draw order, or a drop decision.  That is a bug in the change,
not in the hash: do NOT re-capture the digests to make the suite green
unless the behaviour change is deliberate, understood, and called out in
the commit message.

The three scenarios x three seeds span the behaviour space:

* ``quiet``     - healthy fabric: every per-hop rule passes without an
                  RNG draw;
* ``faulted``   - lossy control plane + corrupting link (RNG drop draws
                  on the faulty hops only, retransmission accounting);
* ``congested`` - saturated uplink with misconfigured PFC headroom under a
                  FaultManager window (fluid-queue integration, overflow
                  drops, and fault knobs flipping under packets in flight).
"""

import pytest

from repro.analysis.runtime import GOLDEN_SCENARIOS, structural_digest

# (scenario, seed) -> sha256 structural digest.  Captured at the pre-fast-
# path commit; every entry has been re-verified byte-identical since.
GOLDEN_DIGESTS = {
    ("quiet", 3):
        "c1f1b66283444cf1ce6c6d74a8ead625469c10596e7994e3cf867fcda262ebeb",
    ("quiet", 7):
        "18c878d8e2862e548717b83ac42ebc633e7afd4e1dfd50ca5828a816a7864ad5",
    ("quiet", 11):
        "c9e7062d356bf1344248fd624bacecf22bd1c96f82151cbaeb5b369468d1bc5c",
    ("faulted", 3):
        "4b954335c09ed48a1a954d0232d3311e8159ccbe6bb78a5eaa749cba309aa3ef",
    ("faulted", 7):
        "308191a862b39e61dc1e558e66104821271d8b25b3a7bcae5e5f2379a34e1d56",
    ("faulted", 11):
        "319b0114ff4b9fb7768d8bacaf4288f594965a35b98906a3fd0e3250131ca8fb",
    ("congested", 3):
        "f975fa2acd7bb2151a2ec4c3436746bc7f1b3af93d4f99bcb14b81add325e901",
    ("congested", 7):
        "55f3438a3c9df22ce03cde5884e4a40da3b30ec95acba742e3ed09c241a02fb8",
    ("congested", 11):
        "546fd82e4adc4c6568e5f6930408e0d4d83018ca008076b810fbbc798aa9721f",
}


def test_golden_table_covers_every_scenario():
    assert {name for name, _ in GOLDEN_DIGESTS} == set(GOLDEN_SCENARIOS)
    for name in GOLDEN_SCENARIOS:
        assert [s for n, s in GOLDEN_DIGESTS if n == name] == [3, 7, 11]


@pytest.mark.parametrize(
    "name,seed", list(GOLDEN_DIGESTS),
    ids=[f"{name}-seed{seed}" for name, seed in GOLDEN_DIGESTS])
def test_scenario_digest_matches_golden(name, seed):
    state = GOLDEN_SCENARIOS[name](seed)
    digest = structural_digest(state)
    assert digest == GOLDEN_DIGESTS[(name, seed)], (
        f"{name} seed {seed}: replay digest changed - the sim core no "
        f"longer reproduces pre-fast-path behaviour byte-for-byte")
