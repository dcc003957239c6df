"""The in-process reference the served replies are checked against.

It is an ``EstimationService`` built from the same XML text the server
parses, fed exactly the acknowledged ops in the admission groups the
server applied them in.  Groups are read back from the acks: on one
connection the server queues ops in send order, flushes contiguous
runs of them, and each ack carries its group's size (``coalesced``).
"""

from __future__ import annotations

from typing import Sequence

from loadgen import Sample
from stats import Tally

#: Serve defaults the server resolves for a fresh ``--wal-dir``.
GRID, SPACING, REBUILD_THRESHOLD = 10, 64, 0.25


class Reference:
    def __init__(self, xml_text: str) -> None:
        from repro.service import EstimationService
        from repro.xmltree import parse_document

        self.service = EstimationService(
            parse_document(xml_text),
            grid_size=GRID,
            spacing=SPACING,
            rebuild_threshold=REBUILD_THRESHOLD,
        )

    def __len__(self) -> int:
        return len(self.service)

    def estimate(self, query: str) -> float:
        return self.service.estimate(query).value

    def exact(self, query: str) -> int:
        return int(self.service.real_answer(query))

    def apply_group(self, requests: Sequence[dict]) -> list[int]:
        """Apply one admission group; returns each op's node count, as
        the server's ack reports it."""
        from repro.service.server import OpSpec

        resolved = [OpSpec.from_request(r).resolve(self.service) for r in requests]
        self.service.apply_batch([op for op, _ in resolved])
        return [nodes for _, nodes in resolved]


def admission_groups(writes: Sequence[Sample], tally: Tally) -> list[list[Sample]]:
    """Split acked writes (one connection, send order) into the groups
    the server flushed, from each ack's ``coalesced`` count.

    Writes without an ok ack were never applied and are left out; a
    run of acks whose sizes do not tile is a mismatch.
    """
    acked = [s for s in writes if s.response is not None and s.response.get("ok")]
    groups: list[list[Sample]] = []
    i = 0
    while i < len(acked):
        size = int(acked[i].response.get("coalesced", 1))
        group = acked[i:i + size]
        if len(group) < size or any(int(s.response.get("coalesced", 1)) != size for s in group):
            tally.mismatch(f"acks at write {i} do not tile into a group of {size}")
            size = 1
            group = acked[i:i + 1]
        groups.append(group)
        i += size
    return groups


def replay(reference: Reference, groups: list[list[Sample]], tally: Tally) -> None:
    """Apply ``groups`` to the reference, checking each ack's node count."""
    for group in groups:
        counts = reference.apply_group([s.request for s in group])
        for sample, nodes in zip(group, counts):
            if sample.response.get("nodes") != nodes:
                tally.mismatch(
                    f"{sample.request['op']} acked {sample.response.get('nodes')} "
                    f"nodes, reference {nodes}"
                )
