"""Output checks: properties every benchmark cell's results must have.

The checks recompute what they can apart from the program (frame counts
from the MAC boundary, CTP parent chains, path-code prefix relations)
instead of comparing against a stored copy. The one stored reference is
``digests.json``: the converged state of each network and each chaos cell's
trace digest at the fixed network seed (``regen.py`` rewrites it).

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pathcode import PathCode
from repro.mac.lpl import LPLMac
from repro.radio.frame import FrameType

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: Frame types whose transmissions make up Table III's count.
CONTROL_FRAMES = frozenset((FrameType.CONTROL, FrameType.FEEDBACK, FrameType.DISSEMINATION))


def load_digests() -> Dict[str, Any]:
    """The pinned digests (``regen.py`` writes them)."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class ControlFrameCounter:
    """Counts control, feedback and dissemination frames handed to the MAC.

    Patches ``LPLMac.send``/``send_anycast`` at class level; counting starts
    at :meth:`arm` (the benchmark arms it at the measurement mark), so the
    count is independent of the program's own ``tx_by_type`` bookkeeping.
    """

    def __init__(self) -> None:
        self.count = 0
        self.armed = False

    def install(self) -> None:
        """Wrap the MAC's two send entry points."""
        for attr in ("send", "send_anycast"):
            setattr(LPLMac, attr, self._counting(LPLMac.__dict__[attr]))

    def _counting(self, original: Any) -> Any:
        counter = self

        def send(mac: Any, frame: Any, done: Any = None) -> None:
            if counter.armed and frame.type in CONTROL_FRAMES:
                counter.count += 1
            original(mac, frame, done)

        return send

    def arm(self) -> None:
        """Start a fresh count now."""
        self.count = 0
        self.armed = True

    def disarm(self) -> int:
        """Stop counting and return the count since :meth:`arm`."""
        self.armed = False
        return self.count


def check_records(records: Sequence[Any], scheduled: int) -> List[str]:
    """Controls scheduled equal records kept; deliveries follow sends, ATHX >= 1."""
    problems: List[str] = []
    if len(records) != scheduled:
        problems.append(f"{scheduled} controls scheduled but {len(records)} records kept")
    for record in records:
        if record.delivered_at is None:
            continue
        if record.delivered_at <= record.sent_at:
            problems.append(
                f"control {record.index} delivered at {record.delivered_at} "
                f"not after its send at {record.sent_at}"
            )
        if record.athx is None or record.athx < 1:
            problems.append(f"control {record.index} delivered with ATHX {record.athx}")
    return problems


def check_tx_count(counted: int, program_count: int) -> List[str]:
    """The MAC-boundary frame count equals the program's Table III numerator."""
    if counted != program_count:
        return [
            f"{counted} control/feedback/dissemination frames reached the MAC "
            f"but the program counts {program_count}"
        ]
    return []


def check_parent_chains(net: Any) -> List[str]:
    """Every routed node's CTP parent chain reaches the sink without a loop."""
    problems: List[str] = []
    stacks = net.stacks
    for node_id, stack in stacks.items():
        routing = stack.routing
        if routing.is_root or routing.parent is None:
            continue
        seen = {node_id}
        current = routing.parent
        while current != net.sink:
            if current in seen:
                problems.append(f"node {node_id}: CTP parent chain loops at {current}")
                break
            seen.add(current)
            parent = stacks[current].routing.parent
            if parent is None:
                problems.append(f"node {node_id}: CTP parent chain ends at unrouted {current}")
                break
            current = parent
    return problems


def _code_of(net: Any, node_id: int) -> Optional[PathCode]:
    adapter = net.protocol_at(node_id)
    return adapter.path_code if adapter is not None else None


def check_path_codes(net: Any) -> List[str]:
    """Each coded node's code extends a valid code of its allocating parent,
    and no two nodes hold the same code (DESIGN §1).

    A parent's valid codes are its current code and, for the grace period
    after a change, its previous one: a child that derived its code just
    before the parent's changed still extends the parent's old code, which
    stays valid until the change has cascaded down. Uniqueness is checked
    over current codes only, since a retained old code's position may
    already have been granted to another node.
    """
    problems: List[str] = []
    owners: Dict[PathCode, int] = {}
    for node_id in net.stacks:
        code = _code_of(net, node_id)
        if code is None:
            continue
        other = owners.setdefault(code, node_id)
        if other != node_id:
            problems.append(f"nodes {other} and {node_id} share path code {code}")
        if node_id == net.sink:
            continue
        # The allocating parent is the node that granted this node's
        # position; the engine keeps it privately.
        parent = net.protocol_at(node_id).allocation._position_parent
        valid: List[PathCode] = []
        if parent is not None:
            allocation = net.protocol_at(parent).allocation
            valid = [c for c in (allocation.code, allocation.valid_old_code()) if c is not None]
        if not any(c.is_prefix_of(code) and len(c) < len(code) for c in valid):
            problems.append(
                f"node {node_id}: code {code} extends no valid code of allocating "
                f"parent {parent} ({', '.join(map(str, valid)) or 'none'})"
            )
    return problems


def mean_code_bits(net: Any) -> float:
    """Mean valid path-code length over coded non-sink nodes (Fig 6a)."""
    lengths = [
        len(code)
        for node_id in net.stacks
        if node_id != net.sink and (code := _code_of(net, node_id)) is not None
    ]
    return sum(lengths) / len(lengths) if lengths else 0.0


def check_digest(name: str, observed: str, pinned: Optional[str]) -> List[str]:
    """A state or trace digest equals its pinned value."""
    if pinned is None:
        return [f"{name}: no pinned digest (run simbench/regen.py)"]
    if observed != pinned:
        return [f"{name}: digest {observed[:16]} differs from pinned {pinned[:16]}"]
    return []


def check_chaos_results(
    cold: Dict[str, Dict[str, Any]],
    warm: Dict[str, Dict[str, Any]],
    pinned: Dict[str, str],
    labels: Dict[str, str],
    n_controls: int,
) -> Dict[str, Tuple[List[str], List[str]]]:
    """Per chaos cell: warm hits equal cold results field for field, the
    trace digest is the pinned one, and every scheduled control has a record.

    Returns ``(problems, errors)`` per cell fingerprint: failed checks, and
    failures that are not wrong output (the cell did not converge).
    """
    outcome: Dict[str, Tuple[List[str], List[str]]] = {}
    for fingerprint, result in cold.items():
        label = labels[fingerprint]
        found: List[str] = []
        errors: List[str] = []
        if warm.get(fingerprint) != result:
            found.append("warm cache hit differs from the cold result")
        found += check_digest(label, result["trace_digest"], pinned.get(label))
        if not result["converged"]:
            errors.append("did not converge")
        sent = result["recovery"]["controls_sent"]
        if result["n_controls"] != n_controls or sent != n_controls:
            found.append(f"{n_controls} controls scheduled but {sent} records kept")
        latency = result["mean_latency_s"]
        if result["recovery"]["controls_delivered"] and not (latency and latency > 0):
            found.append(f"deliveries with mean latency {latency}")
        outcome[fingerprint] = (found, errors)
    return outcome
