"""OpenFlow actions: the two the controller sends."""


class Action:
    """Base class: equality and repr by fields."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join("%s=%s" % item for item in vars(self).items())
        return "%s(%s)" % (type(self).__name__, fields)


class Output(Action):
    """Forward out of ``port`` (or a virtual port like OFPP_FLOOD)."""

    def __init__(self, port: int):
        self.port = port


class Group(Action):
    """Hand the frame to group ``group_id`` (OF 1.1 OFPAT_GROUP,
    carried here as an extension to the 1.0 subset).

    The switch resolves the group at execution time — for a
    FAST_FAILOVER group that means the first bucket whose watched port
    is live.
    """

    def __init__(self, group_id: int):
        self.group_id = group_id
