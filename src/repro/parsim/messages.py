"""Inter-shard messages for the conservative parallel runner.

Every cross-region interaction in parallel mode — RIM report broadcast,
remote DurableQ polls and their responses, ACK/NACK/lease traffic, and
cross-region KV-store deletes — travels as a :class:`ShardMessage`.
Messages are timestamped with their *delivery* time (send time plus the
modelled one-way network latency, which is never below the topology's
lookahead), collected at window barriers, merged by the coordinator in
the canonical order ``(deliver_at, src_region, src_seq)``, and injected
into the destination shard's kernel strictly before their delivery
window runs.

The canonical order is what makes an N-shard run bit-identical to the
1-shard run: within one source region, ``src_seq`` increases in
emission order (region causality), and emission order per region is
shard-grouping-invariant; across regions, ties at the same delivery
instant break on the region name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Message kinds understood by :meth:`ShardPlatform.handle_message`.
KIND_RIM_REPORT = "rim_report"
KIND_DQ_POLL_REQ = "dq_poll_req"
KIND_DQ_POLL_RESP = "dq_poll_resp"
KIND_DQ_ACK = "dq_ack"
KIND_DQ_NACK = "dq_nack"
KIND_DQ_EXTEND = "dq_extend"
KIND_KV_DELETE = "kv_delete"


@dataclass(frozen=True)
class ShardMessage:
    """One timestamped inter-shard (really inter-*region*) message.

    Addressed to a *region*, not a shard: the coordinator maps regions
    to shards, so the wire format never depends on how regions were
    grouped — the prerequisite for shard-count-invariant execution.
    The payload is a tuple of primitives (picklable for the spawn
    runner, cheap to compare in tests).
    """

    deliver_at: float
    src_region: str
    src_seq: int
    dest_region: str
    kind: str
    payload: Tuple[Any, ...]

    def sort_key(self) -> Tuple[float, str, int]:
        """The coordinator's canonical merge key."""
        return (self.deliver_at, self.src_region, self.src_seq)


def serialize_call(call: Any) -> Tuple[Any, ...]:
    """Flatten a ``FunctionCall`` for a cross-shard poll response.

    Only submission-time fields plus the at-least-once bookkeeping
    (``attempts``) and the pre-sampled resources cross the boundary;
    execution-time fields are filled in by the receiving scheduler.
    """
    return (call.spec.name, call.submit_time, call.start_time,
            call.region_submitted, call.source_level, call.args_size_kb,
            call.call_id, call.attempts, call.durableq_region,
            call.resources, call.args_spilled)


def rehydrate_call(data: Tuple[Any, ...], specs: Dict[str, Any]) -> Any:
    """Rebuild a ``FunctionCall`` from :func:`serialize_call` output.

    ``specs`` is the receiving shard's function registry — every shard
    replays the full (replicated) registration stream, so the spec is
    always present.  The call lands in ``BUFFERED`` state, exactly
    where :meth:`DurableQ.poll` leaves a locally leased call.
    """
    from ..core.call import CallState, FunctionCall
    (spec_name, submit_time, start_time, region_submitted, source_level,
     args_size_kb, call_id, attempts, durableq_region, resources,
     args_spilled) = data
    return FunctionCall(spec=specs[spec_name], submit_time=submit_time,
                        start_time=start_time,
                        region_submitted=region_submitted,
                        source_level=source_level,
                        args_size_kb=args_size_kb, call_id=call_id,
                        state=CallState.BUFFERED, attempts=attempts,
                        durableq_region=durableq_region,
                        resources=resources, args_spilled=args_spilled)
