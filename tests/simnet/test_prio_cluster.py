"""Integration: the full Prio protocol over the simulated WAN.

These tests exercise genuinely asynchronous message delivery — round-1
broadcasts can overtake uploads across transatlantic links — and check
that correctness, robustness, and agreement are timing-independent.
"""

import random

import pytest

from repro.afe import FrequencyCountAfe, IntegerSumAfe
from repro.field import FIELD87
from repro.simnet import paper_wan_topology, same_datacenter
from repro.simnet.prio_cluster import ClusterReport, run_cluster


@pytest.fixture
def rng():
    return random.Random(999)


def test_wan_cluster_sums_correctly(rng):
    afe = IntegerSumAfe(FIELD87, 6)
    values = [rng.randrange(64) for _ in range(12)]
    report = run_cluster(afe, paper_wan_topology(), values, rng)
    assert report.n_accepted == 12
    assert report.n_rejected == 0
    assert report.aggregate == sum(values)


def test_same_datacenter_cluster(rng):
    afe = FrequencyCountAfe(FIELD87, 4)
    values = [rng.randrange(4) for _ in range(10)]
    report = run_cluster(afe, same_datacenter(3), values, rng)
    assert report.aggregate is not None
    assert sum(report.aggregate) == 10


def test_client_batching_leaves_cluster_report_unchanged():
    """The batched client prover is bit-identical to the scalar client,
    so batching the *client* half changes nothing in the cluster run —
    not decisions, not bytes, not the message schedule."""
    afe = IntegerSumAfe(FIELD87, 6)
    values_rng = random.Random(7)
    values = [values_rng.randrange(64) for _ in range(9)]
    scalar = run_cluster(
        afe, paper_wan_topology(), values, random.Random(31), batch_size=4
    )
    batched = run_cluster(
        afe, paper_wan_topology(), values, random.Random(31), batch_size=4,
        client_batch_size=4,
    )
    assert batched.n_accepted == scalar.n_accepted == 9
    assert batched.aggregate == scalar.aggregate
    assert batched.wall_clock_s == scalar.wall_clock_s
    assert batched.server_tx_bytes == scalar.server_tx_bytes
    assert batched.first_decision_s == scalar.first_decision_s


def test_wan_latency_dominates_wall_clock(rng):
    """Two broadcast rounds across the WAN: the wall clock must be at
    least two one-way worst-case latencies, and under a second for a
    small batch."""
    afe = IntegerSumAfe(FIELD87, 4)
    report = run_cluster(afe, paper_wan_topology(), [3], rng)
    worst_one_way = 0.079  # Oregon <-> Frankfurt
    assert report.wall_clock_s >= 2 * worst_one_way
    assert report.wall_clock_s < 1.0


def test_datacenter_faster_than_wan(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    wan = run_cluster(afe, paper_wan_topology(), [1, 2], rng)
    lan = run_cluster(
        afe, same_datacenter(5), [1, 2], random.Random(999)
    )
    assert lan.wall_clock_s < wan.wall_clock_s


def test_malicious_submission_rejected_over_wan(rng):
    from repro.protocol.wire import ClientPacket, PacketKind

    afe = IntegerSumAfe(FIELD87, 4)
    values = [5, 9, 2]

    def corrupt_second(index, submission):
        if index != 1:
            return
        packet = submission.packets[-1]
        vec = FIELD87.decode_vector(packet.body)
        vec[0] = (vec[0] + 12345) % FIELD87.modulus
        submission.packets[-1] = ClientPacket(
            submission_id=packet.submission_id,
            server_index=packet.server_index,
            kind=PacketKind.EXPLICIT,
            n_elements=packet.n_elements,
            body=FIELD87.encode_vector(vec),
        )

    report = run_cluster(
        afe, paper_wan_topology(), values, rng, mutate=corrupt_second
    )
    assert report.n_accepted == 2
    assert report.n_rejected == 1
    assert report.aggregate == 5 + 2


def test_servers_agree_under_interleaving(rng):
    """Many submissions in flight at once; every server must reach the
    same accept/reject decisions (asserted inside run_cluster)."""
    afe = IntegerSumAfe(FIELD87, 4)
    values = [rng.randrange(16) for _ in range(30)]
    report = run_cluster(afe, paper_wan_topology(), values, rng)
    assert report.n_accepted == 30


@pytest.mark.parametrize("batch_size", [2, 5, 32])
def test_batched_cluster_matches_unbatched(batch_size):
    """Group-granular verification: outcomes and per-peer byte totals
    must be identical to one-at-a-time verification."""
    afe = IntegerSumAfe(FIELD87, 6)
    values = [random.Random(4).randrange(64) for _ in range(12)]
    base = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999)
    )
    batched = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999),
        batch_size=batch_size,
    )
    assert batched.n_accepted == base.n_accepted == 12
    assert batched.aggregate == base.aggregate == sum(values)
    assert batched.server_tx_bytes == base.server_tx_bytes


def test_batched_cluster_rejects_corruption(rng):
    from repro.protocol.wire import ClientPacket, PacketKind

    afe = IntegerSumAfe(FIELD87, 4)

    def corrupt_third(index, submission):
        if index != 2:
            return
        packet = submission.packets[-1]
        vec = FIELD87.decode_vector(packet.body)
        vec[0] = (vec[0] + 7) % FIELD87.modulus
        submission.packets[-1] = ClientPacket(
            submission_id=packet.submission_id,
            server_index=packet.server_index,
            kind=PacketKind.EXPLICIT,
            n_elements=packet.n_elements,
            body=FIELD87.encode_vector(vec),
        )

    report = run_cluster(
        afe, same_datacenter(3), [5, 9, 2, 7], rng,
        mutate=corrupt_third, batch_size=4,
    )
    assert report.n_accepted == 3
    assert report.n_rejected == 1
    assert report.aggregate == 5 + 9 + 7


def test_byte_accounting_over_wan(rng):
    """Per-peer verification traffic: 4 elements across 2 rounds."""
    afe = IntegerSumAfe(FIELD87, 4)
    n = 10
    report = run_cluster(afe, paper_wan_topology(), [1] * n, rng)
    element = FIELD87.encoded_size
    n_servers = 5
    # Server 1 (a non-leader, no client traffic in this model):
    # 2 rounds x 2 elements to each of 4 peers per submission.
    expected = n * 2 * (2 * element) * (n_servers - 1)
    assert report.server_tx_bytes[1] == expected


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_cluster_executor_backends_match_inline(executor):
    """The fan-out backend must be unobservable: same decisions, same
    aggregate, same wire bytes whether each simulated server's CPU work
    runs inline, on threads, or in a dedicated worker process."""
    import multiprocessing

    afe = IntegerSumAfe(FIELD87, 6)
    values = [random.Random(11).randrange(64) for _ in range(9)]
    base = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999), batch_size=3
    )
    other = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999),
        batch_size=3, executor=executor,
    )
    assert other.n_accepted == base.n_accepted == 9
    assert other.aggregate == base.aggregate == sum(values)
    assert other.server_tx_bytes == base.server_tx_bytes
    assert other.wall_clock_s == base.wall_clock_s
    assert multiprocessing.active_children() == []


def test_cluster_rejects_foreign_fanout_instances():
    """run_cluster builds its own servers; a caller fanout is bound to
    different ones and would yield a silently empty report."""
    from repro.protocol import PrioDeployment, ProcessFanout
    from repro.simnet.network import SimError

    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 3, rng=random.Random(3)
    )
    fanout = ProcessFanout(deployment.servers)
    try:
        with pytest.raises(SimError, match="owns its servers"):
            run_cluster(
                IntegerSumAfe(FIELD87, 4), same_datacenter(3), [1],
                random.Random(1), executor=fanout,
            )
    finally:
        fanout.close()


def _corrupt_fourth(index, submission):
    """Shift one explicit share element of upload 3: a well-framed
    upload whose proof no longer verifies."""
    from repro.protocol.wire import ClientPacket, PacketKind

    if index != 3:
        return
    packet = submission.packets[-1]
    vec = FIELD87.decode_vector(packet.body)
    vec[0] = (vec[0] + 12345) % FIELD87.modulus
    submission.packets[-1] = ClientPacket(
        submission_id=packet.submission_id,
        server_index=packet.server_index,
        kind=PacketKind.EXPLICIT,
        n_elements=packet.n_elements,
        body=FIELD87.encode_vector(vec),
    )


#: whole reports, compared exactly: when a node receives its uploads
#: must not move one event, byte or decision of the run
_GOLDEN = {
    (1, False): ClusterReport(
        n_accepted=10, n_rejected=0, aggregate=45,
        wall_clock_s=0.202004608,
        server_tx_bytes=[8760, 1760, 1760, 1760, 1760],
        first_decision_s=0.161004608,
    ),
    (1, True): ClusterReport(
        n_accepted=9, n_rejected=1, aggregate=42,
        wall_clock_s=0.202004608,
        server_tx_bytes=[8760, 1760, 1760, 1760, 1760],
        first_decision_s=0.161004608,
    ),
    (4, False): ClusterReport(
        n_accepted=10, n_rejected=0, aggregate=45,
        wall_clock_s=0.202005664,
        server_tx_bytes=[8760, 1760, 1760, 1760, 1760],
        first_decision_s=0.16100495999999997,
    ),
    (4, True): ClusterReport(
        n_accepted=9, n_rejected=1, aggregate=42,
        wall_clock_s=0.202005664,
        server_tx_bytes=[8760, 1760, 1760, 1760, 1760],
        first_decision_s=0.16100495999999997,
    ),
}


@pytest.mark.parametrize("executor", ["inline", "inline:2"])
@pytest.mark.parametrize("corrupted", [False, True])
@pytest.mark.parametrize("batch_size", [1, 4])
def test_cluster_report_golden(batch_size, corrupted, executor):
    report = run_cluster(
        IntegerSumAfe(FIELD87, 8), paper_wan_topology(), range(10),
        random.Random(5), batch_size=batch_size, executor=executor,
        mutate=_corrupt_fourth if corrupted else None,
    )
    assert report == _GOLDEN[batch_size, corrupted]


def test_local_receive_failure_raises_sim_error():
    """The simulation has no retry path: a server refusing an upload of
    its own group (here a replayed id) stops the run loudly."""
    from repro.simnet.network import SimError

    first = []

    def replay_first(index, submission):
        if index == 0:
            first.append(submission.packets)
        else:
            submission.packets = first[0]

    with pytest.raises(SimError, match="refused an upload"):
        run_cluster(
            IntegerSumAfe(FIELD87, 4), same_datacenter(3), [1, 2],
            random.Random(8), batch_size=2, mutate=replay_first,
        )
