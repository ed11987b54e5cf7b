"""Tests for the matched message queues."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, Message


def msg(src=0, tag=0, payload=None, arrival=0.0, nbytes=0):
    return Message(arrival=arrival, src=src, tag=tag,
                   payload=payload, nbytes=nbytes)


class TestMatching:
    def test_fifo_per_source_tag(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=7, payload="a", arrival=1.0))
        box.put(msg(src=1, tag=7, payload="b", arrival=2.0))
        assert box.get(src=1, tag=7).payload == "a"
        assert box.get(src=1, tag=7).payload == "b"

    def test_tag_filtering(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=1, payload="x"))
        box.put(msg(src=1, tag=2, payload="y"))
        assert box.get(src=1, tag=2).payload == "y"
        assert box.get(src=1, tag=1).payload == "x"

    def test_source_filtering(self):
        box = Mailbox(0)
        box.put(msg(src=2, payload="from2"))
        box.put(msg(src=3, payload="from3"))
        assert box.get(src=3).payload == "from3"

    def test_wildcard_picks_earliest_virtual_arrival(self):
        box = Mailbox(0)
        box.put(msg(src=5, payload="late", arrival=9.0))
        box.put(msg(src=2, payload="early", arrival=1.0))
        assert box.get(ANY_SOURCE, ANY_TAG).payload == "early"

    def test_wildcard_ties_broken_by_source(self):
        box = Mailbox(0)
        box.put(msg(src=5, payload="five", arrival=1.0))
        box.put(msg(src=2, payload="two", arrival=1.0))
        assert box.get().payload == "two"

    def test_equal_messages_leave_in_deposit_order(self):
        box = Mailbox(0)
        sent = [Message(arrival=1.0, src=2, seq=0, tag=3) for _ in range(5)]
        for m in sent:
            box.put(m)
        got = [box.get(src=2, tag=3) for _ in sent]
        assert all(g is m for g, m in zip(got, sent))

    def test_poll_returns_none_when_empty(self):
        assert Mailbox(0).poll() is None

    def test_poll_respects_filter(self):
        box = Mailbox(0)
        box.put(msg(src=1, tag=4))
        assert box.poll(src=2) is None
        assert box.poll(src=1, tag=4) is not None

    def test_probe_does_not_consume(self):
        box = Mailbox(0)
        box.put(msg(src=1))
        assert box.probe(src=1)
        assert box.probe(src=1)
        assert box.pending_count() == 1


class TestBlockingAndTimeout:
    def test_get_blocks_until_put(self):
        box = Mailbox(0)
        got = []

        def receiver():
            got.append(box.get(src=1).payload)

        t = threading.Thread(target=receiver)
        t.start()
        box.put(msg(src=1, payload=42))
        t.join(timeout=5)
        assert got == [42]

    def test_timeout_raises(self):
        box = Mailbox(0)
        with pytest.raises(TimeoutError, match="deadlock"):
            box.get(src=1, timeout=0.05)

    def test_close_wakes_blocked_receiver(self):
        box = Mailbox(3)
        errors = []

        def receiver():
            try:
                box.get(src=1, timeout=5)
            except RuntimeError as e:
                errors.append(str(e))

        t = threading.Thread(target=receiver)
        t.start()
        box.close()
        t.join(timeout=5)
        assert errors and "closed" in errors[0]

    def test_concurrent_senders_lose_nothing(self):
        """More sender threads than cores against one receiver draining
        by key and by wildcard: every message arrives exactly once."""
        box, senders, each = Mailbox(0), 6, 200
        got: list[Message] = []

        def send(src):
            for i in range(each):
                box.put(msg(src=src, tag=i % 3, payload=(src, i),
                            arrival=float(i)))

        def receive():
            for i in range(senders * each):
                if i % 2:
                    got.append(box.get(timeout=10))
                else:
                    got.append(box.get(src=i % senders, timeout=10)
                               if box.probe(src=i % senders)
                               else box.get(timeout=10))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=send, args=(s,))
                       for s in range(senders)]
            threads.append(threading.Thread(target=receive))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(m.payload for m in got) == sorted(
            (s, i) for s in range(senders) for i in range(each))
        assert box.pending_count() == 0
        assert box.pending_summary() == {}

    def test_put_after_close_rejected(self):
        box = Mailbox(0)
        box.close()
        with pytest.raises(RuntimeError):
            box.put(msg())


class ScanMailbox:
    """Reference matcher: the former flat-list mailbox, single-threaded.

    Messages sit in deposit order in one list and a receive scans all of
    them for the smallest matching :class:`Message`, keeping the first
    deposited on ties.
    """

    def __init__(self):
        self._messages: list[Message] = []
        self._seen_xmits: set[tuple[int, int]] = set()
        self.duplicates_suppressed = 0
        self.max_pending = 0

    def put(self, m: Message) -> None:
        if m.xmit_id is not None:
            if (m.src, m.xmit_id) in self._seen_xmits:
                self.duplicates_suppressed += 1
                return
            self._seen_xmits.add((m.src, m.xmit_id))
        self.requeue(m)

    def requeue(self, m: Message) -> None:
        self._messages.append(m)
        self.max_pending = max(self.max_pending, len(self._messages))

    def _match_index(self, src: int, tag: int) -> int | None:
        best: int | None = None
        for i, m in enumerate(self._messages):
            if src != ANY_SOURCE and m.src != src:
                continue
            if tag != ANY_TAG and m.tag != tag:
                continue
            if best is None or m < self._messages[best]:
                best = i
        return best

    def poll(self, src: int, tag: int) -> Message | None:
        i = self._match_index(src, tag)
        return self._messages.pop(i) if i is not None else None

    def probe(self, src: int, tag: int) -> bool:
        return self._match_index(src, tag) is not None

    def pending_count(self) -> int:
        return len(self._messages)

    def pending_summary(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for m in self._messages:
            out[(m.src, m.tag)] = out.get((m.src, m.tag), 0) + 1
        return out


# Few distinct values, so equal arrivals across sources, equal
# (arrival, src, seq) triples and repeated xmit ids all come up.
_srcs = st.sampled_from([0, 1, 2])
_tags = st.sampled_from([5, 6])
_put = st.tuples(st.just("put"), st.sampled_from([0.0, 1.5]), _srcs, _tags,
                 st.integers(0, 1), st.sampled_from([None, None, 0, 1]))
_recv = st.tuples(st.sampled_from(["get", "poll", "probe"]),
                  st.sampled_from([ANY_SOURCE, 0, 1, 2]),
                  st.sampled_from([ANY_TAG, 5, 6]))
_requeue = st.tuples(st.just("requeue"), st.integers(0, 50))


class TestKeyedMatchesScanOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_put, _put, _recv, _requeue), min_size=10,
                    max_size=80))
    def test_same_message_as_linear_scan(self, ops):
        box, ref = Mailbox(0), ScanMailbox()
        received: list[Message] = []
        for op in ops:
            kind = op[0]
            if kind == "put":
                _, arrival, src, tag, seq, xmit = op
                m = Message(arrival=arrival, src=src, seq=seq, tag=tag,
                            xmit_id=xmit)
                box.put(m)
                ref.put(m)
            elif kind == "requeue":
                if received:
                    m = received.pop(op[1] % len(received))
                    box.requeue(m)
                    ref.requeue(m)
            elif kind == "probe":
                assert box.probe(op[1], op[2]) == ref.probe(op[1], op[2])
            else:
                want = ref.poll(op[1], op[2])
                if kind == "poll":
                    got = box.poll(op[1], op[2])
                elif want is None:
                    with pytest.raises(TimeoutError):
                        box.get(op[1], op[2], timeout=0)
                    got = None
                else:
                    got = box.get(op[1], op[2], timeout=0)
                assert got is want
                if got is not None:
                    received.append(got)
            assert box.pending_count() == ref.pending_count()
            assert box.max_pending == ref.max_pending
            assert box.pending_summary() == ref.pending_summary()
            assert box.duplicates_suppressed == ref.duplicates_suppressed
