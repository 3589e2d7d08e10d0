"""Shared protocol machinery: event validation, message shapes, cost metering,
CSV schema, and the base member/server interfaces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkms.core import (
    CSV_COLUMNS,
    Bootstrap,
    CostMeter,
    EventError,
    EventOutput,
    Knowledge,
    MembershipEvent,
    MemberView,
    Notice,
    RekeyMessage,
    RosterView,
    ServerProtocol,
    csv_row,
    rows_to_csv,
)
from gkms.crypto import SymKey, WrappedKey
from gkms.tree import build_balanced

K = SymKey(bytes(32))


def msg(channel="multicast", recipients=("a", "b"), n_payloads=2, aux=None):
    payloads = tuple(
        WrappedKey(ciphertext=bytes(48), kek_id=i) for i in range(n_payloads)
    )
    return RekeyMessage(
        channel=channel,
        recipients=tuple(recipients),
        payloads=payloads,
        aux=aux or {},
    )


# -- events -------------------------------------------------------------------


def test_event_validation():
    # a plain record: the server's _validate is the one membership check
    server = _StubServer()
    for bad, message in (
        (MembershipEvent(1, "rekey", ("d",)), "unknown op 'rekey'"),
        (MembershipEvent(1, "join", ()), "event must name at least one member"),
        (MembershipEvent(1, "leave", ("a", "a")), "duplicate member ids in one event"),
    ):
        with pytest.raises(EventError, match=message):
            server._validate(bad)


# -- messages -----------------------------------------------------------------


def test_message_shapes():
    m = msg(n_payloads=3)
    assert m.size_in_keys == 3
    with pytest.raises(ValueError):
        msg(recipients=())
    with pytest.raises(ValueError):
        Notice(kind="join", recipients=(), aux={})
    with pytest.raises(ValueError):
        Notice(kind="join", recipients=RosterView(("a", "b"), 2, [(0, 0), (1, 1)], 2), aux={})
    with pytest.raises(ValueError):
        msg(channel="unicast", recipients=("a", "b"))
    assert msg(channel="unicast", recipients=("a",)).size_in_keys == 2


def test_event_output_partitions_deliveries():
    notice = Notice(kind="join", recipients=("a",), aux={})
    out = EventOutput(deliveries=[msg(), notice, msg()])
    assert len(out.messages) == 2
    assert out.notices == [notice]


# -- meter ---------------------------------------------------------------------


def test_meter_counts_and_event_deltas():
    # the meter is the event's cost record: callers add to its counters
    meter = CostMeter()
    meter.keygen += 3
    meter.encrypt += 1
    meter.member_derivations += 2
    assert meter == CostMeter(keygen=3, encrypt=1, member_derivations=2)
    assert (meter.unicast, meter.multicast, meter.payload_keys, meter.notices) == (0, 0, 0, 0)
    assert meter.wrap_log is None

    # the wrap log is an analysis-side record, not a cost
    assert CostMeter() == CostMeter(wrap_log={b"ct": b"kek"})


def test_send_meters_messages_by_channel_and_size():
    meter, output = CostMeter(), EventOutput()
    notice = Notice(kind="join", recipients=("a",), aux={})
    deliveries = [msg(n_payloads=4), notice, msg(channel="unicast", recipients=("a",), n_payloads=1)]
    for delivery in deliveries:
        output.send(delivery, meter)
    assert output.deliveries == deliveries
    assert meter == CostMeter(unicast=1, multicast=1, payload_keys=5, notices=1)


# -- csv -------------------------------------------------------------------------


def test_csv_row_and_serialisation():
    cost = CostMeter(keygen=1, multicast=1, payload_keys=5)
    row = csv_row("ckcs", 16, 2, "leave", cost)
    assert row == {
        "protocol": "ckcs",
        "n": 16,
        "m": 2,
        "op": "leave",
        "keygen": 1,
        "encrypt": 0,
        "unicast": 0,
        "multicast": 1,
        "msg_size_keys": 5,
        "member_derivations": 0,
    }
    text = rows_to_csv([row], extra_columns=["wall_ms"])
    header, line = text.strip().splitlines()
    assert header == ",".join(CSV_COLUMNS + ["wall_ms"])
    assert line.startswith("ckcs,16,2,leave,1,0,0,1,5,0")
    assert line.endswith(",")  # missing extra renders empty


# -- member/server interfaces ------------------------------------------------------


class _ProbeView(MemberView):
    @classmethod
    def receive_message(cls, message, views, meter):
        for view in views:
            view._learn_group_key(K)


def test_member_view_basics():
    view = _ProbeView("alice", SymKey(bytes([1]) * 32), {})
    assert view.group_key is None
    assert view.individual_key.data in view.knowledge.key_bytes
    view._check_addressed(msg(recipients=("bob", "alice")))
    with pytest.raises(EventError):
        view._check_addressed(msg(recipients=("bob",)))
    notice = Notice(kind="join", recipients=("alice",), aux={})
    with pytest.raises(EventError):
        view.apply_notice(notice, CostMeter())
    view.apply_message(msg(recipients=("alice",)), CostMeter())
    assert view.group_key == K
    assert K.data in view.knowledge.key_bytes


def test_recipient_check_against_the_delivery_set():
    view = _ProbeView("alice", SymKey(bytes([1]) * 32), {})
    message = msg(recipients=("carol", "alice", "bob"))
    view._check_addressed(message)
    other = msg(recipients=("carol", "bob"))
    with pytest.raises(EventError, match=r"not addressed to alice: \('carol', 'bob'\)"):
        view._check_addressed(other)
    notice = Notice(kind="join", recipients=("bob",), aux={})
    with pytest.raises(EventError):
        view._check_addressed(notice)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 24), data=st.data())
def test_roster_views_read_as_the_tuples_they_stand_for(n, data):
    members = tuple(f"m{i}" for i in range(n))
    present = data.draw(st.integers(0, n))
    leavers = data.draw(st.permutations(members[:present]))[: data.draw(st.integers(0, present))]
    cuts = sorted((members.index(member), index) for index, member in enumerate(leavers))
    assert tuple(RosterView(members, present)) == members[:present]
    for gone in range(len(leavers) + 1):
        view = RosterView(members, present, cuts, gone)
        expected = tuple(m for m in members[:present] if m not in leavers[:gone])
        runs = [members[start:end] for start, end in view.spans()]
        assert all(runs)  # each span is non-empty
        assert tuple(member for run in runs for member in run) == expected
        assert tuple(view) == expected
        assert len(view) == len(expected)
        for member in members:  # ids past present and ids cut before gone too
            assert (member in view) == (member in expected)


def test_check_addressed_names_a_view_as_its_tuple():
    view = _ProbeView("alice", SymKey(bytes([1]) * 32), {})
    members = ("alice", "bob", "carol", "dave")
    cuts = [(0, 0), (3, 1)]  # alice leaves first, then dave
    message = RekeyMessage(
        channel="multicast", recipients=RosterView(members, 4, cuts, 1), payloads=(), aux={}
    )
    notice = Notice(kind="join", recipients=RosterView(members, 4, cuts, 2), aux={})
    # the text a tuple of the same members gives
    for delivery, text in (
        (message, "message not addressed to alice: ('bob', 'carol', 'dave')"),
        (notice, "message not addressed to alice: ('bob', 'carol')"),
    ):
        with pytest.raises(EventError) as info:
            view._check_addressed(delivery)
        assert str(info.value) == text
    _ProbeView("carol", SymKey(bytes([2]) * 32), {})._check_addressed(message)


def _keys(count, salt):
    return [SymKey(bytes([salt, i]) * 16) for i in range(count)]


def test_knowledge_holds_the_values_learned():
    knowledge = Knowledge()
    learned = _keys(13, salt=2) + _keys(21, salt=1)[3:9]
    for key in learned:
        knowledge.learn_key(key)
    assert knowledge.key_bytes == {key.data for key in learned}
    for key in learned[:4]:  # learning a value twice changes no key_bytes
        knowledge.learn_key(SymKey(bytes(bytearray(key.data))))
    assert knowledge.key_bytes == {key.data for key in learned}
    unknown = _keys(21, salt=1)[:3] + _keys(5, salt=3)
    assert not {key.data for key in unknown} & knowledge.key_bytes


class _StubServer(ServerProtocol):
    name = "stub"
    arity = 2

    def __init__(self):
        self.tree = build_balanced(["a", "b", "c"], self.arity)

    @property
    def group_key(self):
        return K

    def handle_event(self, event, rng, meter):
        raise NotImplementedError

    def build_member(self, bootstrap):
        raise NotImplementedError


def test_server_validation_rules():
    server = _StubServer()
    assert server.member_ids == ("a", "b", "c")
    assert server.member_count == 3
    server._validate(MembershipEvent(1, "join", ("d",)))
    server._validate(MembershipEvent(1, "leave", ("a", "b")))
    with pytest.raises(EventError):
        server._validate(MembershipEvent(1, "join", ("a",)))
    with pytest.raises(EventError):
        server._validate(MembershipEvent(1, "leave", ("zz",)))
    with pytest.raises(EventError):
        server._validate(MembershipEvent(1, "leave", ("a", "b", "c")))


def test_bootstrap_is_plain_data():
    boot = Bootstrap(member_id="a", individual_key=K, leaf_id=4, extra={"path": []})
    assert boot.member_id == "a"
    assert boot.extra["path"] == []
