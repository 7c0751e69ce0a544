"""The OF 1.0 flow table: priority lookup, timeouts, statistics —
plus the group table extension backing fast-failover protection."""

from typing import Callable, Dict, List, Optional

from repro.openflow.actions import Action
from repro.openflow.match import Match


class FlowEntry:
    """One installed flow: match + actions + counters + timeouts."""

    def __init__(self, match: Match, actions: List[Action],
                 priority: int = 0x8000, idle_timeout: float = 0.0,
                 hard_timeout: float = 0.0, cookie: int = 0,
                 flags: int = 0, installed_at: float = 0.0):
        self.match = match
        self.actions = list(actions)
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.flags = flags
        self.installed_at = installed_at
        self.last_used = installed_at
        self.packet_count = 0
        self.byte_count = 0

    def note_hit(self, nbytes: int, now: float) -> None:
        self.packet_count += 1
        self.byte_count += nbytes
        self.last_used = now

    def expired(self, now: float) -> Optional[int]:
        """FlowRemoved reason code if the entry has expired, else None."""
        from repro.openflow.messages import FlowRemoved
        # the same sums FlowTable._expiry_deadline arms: a difference
        # (now - installed_at) can round below the timeout at the very
        # deadline, and the entry would outlive its sweep
        if self.hard_timeout > 0 and \
                now >= self.installed_at + self.hard_timeout:
            return FlowRemoved.REASON_HARD_TIMEOUT
        if self.idle_timeout > 0 and \
                now >= self.last_used + self.idle_timeout:
            return FlowRemoved.REASON_IDLE_TIMEOUT
        return None

    def duration(self, now: float) -> float:
        return now - self.installed_at

    def __repr__(self) -> str:
        return "FlowEntry(prio=%d, %s, pkts=%d)" % (
            self.priority, self.match, self.packet_count)


class FlowTable:
    """Priority-ordered flow entries with OF 1.0 add/modify/delete
    semantics.  The owner supplies ``now`` (simulated seconds) on every
    call; expiry notifications go through the ``on_removed`` callback.
    """

    def __init__(self,
                 on_removed: Optional[Callable[[FlowEntry, int],
                                               None]] = None):
        self.entries: List[FlowEntry] = []
        self.on_removed = on_removed
        # bumped on every mutation (add/modify/delete/expiry removal);
        # the switch validates its flow cache (and key mask) against this
        self.version = 0
        # earliest simulated time any entry *could* expire; expire()
        # early-exits before this.  Conservative: idle-timeout deadlines
        # only move later as note_hit refreshes last_used, so a stale
        # deadline triggers at worst one wasted scan, never a late one.
        self._next_expiry = float("inf")

    @staticmethod
    def _expiry_deadline(entry: FlowEntry) -> float:
        deadline = float("inf")
        if entry.hard_timeout > 0:
            deadline = entry.installed_at + entry.hard_timeout
        if entry.idle_timeout > 0:
            deadline = min(deadline, entry.last_used + entry.idle_timeout)
        return deadline

    def __len__(self) -> int:
        return len(self.entries)

    # -- modification -------------------------------------------------------

    def add(self, entry: FlowEntry) -> None:
        """OFPFC_ADD: replace any entry with identical match+priority."""
        self.entries = [existing for existing in self.entries
                        if not (existing.priority == entry.priority
                                and existing.match == entry.match)]
        self.entries.append(entry)
        # highest priority first; stable for equal priorities
        self.entries.sort(key=lambda flow: -flow.priority)
        self.version += 1
        self._next_expiry = min(self._next_expiry,
                                self._expiry_deadline(entry))

    def modify(self, match: Match, actions: List[Action],
               strict: bool = False, priority: int = 0x8000) -> int:
        """OFPFC_MODIFY[_STRICT]: update actions of matching entries.

        Returns the number of entries updated (0 means the caller should
        fall back to ADD, per the spec).
        """
        updated = 0
        for entry in self.entries:
            if strict:
                if entry.priority == priority and entry.match == match:
                    entry.actions = list(actions)
                    updated += 1
            elif entry.match.is_subset_of(match):
                entry.actions = list(actions)
                updated += 1
        if updated:
            self.version += 1
        return updated

    def delete(self, match: Match, strict: bool = False,
               priority: int = 0x8000, now: float = 0.0) -> int:
        """OFPFC_DELETE[_STRICT].  Returns the number removed."""
        from repro.openflow.messages import FlowRemoved
        keep: List[FlowEntry] = []
        removed: List[FlowEntry] = []
        for entry in self.entries:
            if strict:
                dead = entry.priority == priority and entry.match == match
            else:
                dead = entry.match.is_subset_of(match)
            (removed if dead else keep).append(entry)
        self.entries = keep
        if removed:
            self.version += 1
        for entry in removed:
            self._notify(entry, FlowRemoved.REASON_DELETE)
        return len(removed)

    def _notify(self, entry: FlowEntry, reason: int) -> None:
        if self.on_removed is not None:
            self.on_removed(entry, reason)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, packet, in_port: int, now: float,
               fields: Optional[tuple] = None) -> Optional[FlowEntry]:
        """Highest-priority matching, non-expired entry (hit counters
        updated by the caller, see :meth:`FlowEntry.note_hit`).
        ``fields`` is ``flow_key(packet)`` from a caller that has it."""
        self.expire(now)
        concrete = (Match.from_packet(packet, in_port) if fields is None
                    else Match(in_port, *fields))
        for entry in self.entries:
            if entry.match.matches(concrete):
                return entry
        return None

    def expire(self, now: float) -> int:
        """Remove timed-out entries, firing on_removed for each.

        Early-exits (no scan) while ``now`` is before the earliest
        possible deadline — with timeout-free tables this is one float
        compare per call, which matters because :meth:`lookup` runs it
        per packet.
        """
        if now < self._next_expiry:
            return 0
        keep: List[FlowEntry] = []
        expired: List[tuple] = []
        next_expiry = float("inf")
        for entry in self.entries:
            reason = entry.expired(now)
            if reason is None:
                keep.append(entry)
                next_expiry = min(next_expiry, self._expiry_deadline(entry))
            else:
                expired.append((entry, reason))
        self.entries = keep
        self._next_expiry = next_expiry
        if expired:
            self.version += 1
        for entry, reason in expired:
            self._notify(entry, reason)
        return len(expired)

    def stats(self, match: Optional[Match] = None,
              now: float = 0.0) -> List[FlowEntry]:
        """Entries covered by ``match`` (all when None), post-expiry."""
        self.expire(now)
        if match is None:
            return list(self.entries)
        return [entry for entry in self.entries
                if entry.match.is_subset_of(match)]


# -- groups -------------------------------------------------------------------


class GroupError(Exception):
    """Group table operation failure; ``code`` follows the OF 1.1
    ofp_group_mod_failed_code values so the switch can reply with a
    faithful error message."""

    GROUP_EXISTS = 0
    INVALID_GROUP = 1
    UNKNOWN_GROUP = 8

    def __init__(self, message: str, code: int = INVALID_GROUP):
        super().__init__(message)
        self.code = code


class GroupEntry:
    """One installed group: ordered action buckets.

    Only FAST_FAILOVER groups are executable: :meth:`select` walks the
    buckets in order and returns the first whose watched port is live.
    ``current_bucket`` remembers the last selection so the switch can
    detect a failover flip (and flip-back) without controller help.
    """

    # mirror of messages.GroupMod.TYPE_FAST_FAILOVER (kept local, as
    # this module only lazily imports repro.openflow.messages)
    FAST_FAILOVER = 3

    def __init__(self, group_id: int, group_type: int, buckets: List):
        self.group_id = group_id
        self.group_type = group_type
        self.buckets = list(buckets)
        self.packet_count = 0
        self.byte_count = 0
        self.current_bucket: Optional[int] = None

    def select(self, ports: Dict[int, object]) -> Optional[tuple]:
        """``(index, bucket)`` of the first live bucket, else None.

        A bucket is live when its watch port is up (WATCH_NONE buckets
        are always live).  Non-FF groups degrade to their first bucket
        — the switch refuses to install the other types, so this is
        only a defensive path.
        """
        if self.group_type == self.FAST_FAILOVER:
            for index, bucket in enumerate(self.buckets):
                watch = bucket.watch_port
                if watch == 0xFFFF:  # GroupBucket.WATCH_NONE
                    return index, bucket
                port = ports.get(watch)
                if port is not None and port.up:
                    return index, bucket
            return None
        if self.buckets:
            return 0, self.buckets[0]
        return None

    def __repr__(self) -> str:
        return "GroupEntry(%d, type=%d, %d buckets)" % (
            self.group_id, self.group_type, len(self.buckets))


class GroupTable:
    """The switch's group table: group_id -> :class:`GroupEntry` with
    OF 1.1 add/modify/delete semantics.  Mutations must invalidate any
    memoized group resolution — the owning switch flushes its flow
    cache after every call that returns normally."""

    def __init__(self):
        self.groups: Dict[int, GroupEntry] = {}

    def __len__(self) -> int:
        return len(self.groups)

    def __contains__(self, group_id: int) -> bool:
        return group_id in self.groups

    def get(self, group_id: int) -> Optional[GroupEntry]:
        return self.groups.get(group_id)

    def add(self, group_id: int, group_type: int,
            buckets: List) -> GroupEntry:
        if group_id in self.groups:
            raise GroupError("group %d already exists" % group_id,
                             GroupError.GROUP_EXISTS)
        if group_type != GroupEntry.FAST_FAILOVER:
            raise GroupError("unsupported group type %d" % group_type,
                             GroupError.INVALID_GROUP)
        if not buckets:
            raise GroupError("group %d needs at least one bucket"
                             % group_id, GroupError.INVALID_GROUP)
        entry = GroupEntry(group_id, group_type, buckets)
        self.groups[group_id] = entry
        return entry

    def modify(self, group_id: int, group_type: int,
               buckets: List) -> GroupEntry:
        entry = self.groups.get(group_id)
        if entry is None:
            raise GroupError("no group %d to modify" % group_id,
                             GroupError.UNKNOWN_GROUP)
        if group_type != GroupEntry.FAST_FAILOVER:
            raise GroupError("unsupported group type %d" % group_type,
                             GroupError.INVALID_GROUP)
        if not buckets:
            raise GroupError("group %d needs at least one bucket"
                             % group_id, GroupError.INVALID_GROUP)
        entry.group_type = group_type
        entry.buckets = list(buckets)
        entry.current_bucket = None
        return entry

    def delete(self, group_id: int) -> Optional[GroupEntry]:
        """Remove ``group_id`` (no error when absent, per the spec's
        DELETE semantics)."""
        return self.groups.pop(group_id, None)
