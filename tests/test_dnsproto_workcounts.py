"""What the codec's memos cost and hold, counted rather than timed.

The compiled codec validates a name once per distinct name and a wire
label once per distinct label, and parses or encodes a message once
per distinct payload after the ID -- or, for a message ending in its
IPv4 ECS address, once per client-subnet template.  These tests pin that with the
memos' own counters, and pin what keeps the memos safe: an input that
fails validation is never remembered, and no input stream grows them
past their bound.
"""

import datetime
import random

import pytest

import repro.api
from repro.dnsproto import (
    ClientSubnetOption,
    Flags,
    Message,
    WireFormatError,
    make_query,
)
from repro.dnsproto.message import (
    _decode_payload,
    _encode_payload,
    _question,
    _response_flags,
)
from repro.dnsproto.name import _label_text, _name_plan, encode_name
from repro.dnsproto.wire import WireWriter
from repro.dnssrv import AuthoritativeServer
from repro.net.ipv4 import Prefix
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

NAME_MEMOS = (_name_plan, _label_text)
PAYLOAD_MEMOS = (_decode_payload, _encode_payload)


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in (*NAME_MEMOS, *PAYLOAD_MEMOS, Flags.decode, _question,
                 _response_flags):
        memo.cache_clear()


def _encode(name):
    writer = WireWriter()
    encode_name(writer, name, {})
    return writer.getvalue()


class TestNamePlan:
    def test_second_encode_validates_nothing(self):
        first = _encode("www.cdn.example")
        assert _name_plan.cache_info()[:2] == (0, 1)  # hits, misses
        assert _encode("www.cdn.example") == first
        assert _name_plan.cache_info()[:2] == (1, 1)

    def test_a_message_plans_each_distinct_name_once(self):
        query = make_query("www.cdn.example")
        query.encode()
        misses = _name_plan.cache_info().misses
        for _ in range(5):
            query.encode()
        assert _name_plan.cache_info().misses == misses

    @pytest.mark.parametrize("name", [
        "a" * 64 + ".com",               # label over 63 bytes
        ".".join(["a" * 60] * 5),        # name over 255 bytes
        "a..b",                          # empty label
        "caf\xe9.example",               # not ASCII
    ], ids=["label-64", "name-305", "empty-label", "non-ascii"])
    def test_bad_name_raises_every_time_and_is_not_kept(self, name):
        for _ in range(2):
            with pytest.raises(WireFormatError):
                _encode(name)
        info = _name_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


class TestLabelText:
    def test_second_decode_validates_nothing(self):
        wire = make_query("www.cdn.example", msg_id=1).encode()
        Message.decode(wire)
        assert _label_text.cache_info()[:2] == (0, 3)
        # The same payload, then the same payload under another ID:
        # neither reaches the parser.
        Message.decode(wire)
        assert Message.decode(b"\xbe\xef" + wire[2:]).msg_id == 0xBEEF
        assert _label_text.cache_info()[:2] == (0, 3)
        assert _decode_payload.cache_info()[:2] == (2, 1)

    def test_another_subnet_reuses_the_template_and_validates_its_address(
            self, monkeypatch):
        validated = []
        decode_ecs = ClientSubnetOption.decode.__func__

        def counting(cls, data):
            validated.append(data)
            return decode_ecs(cls, data)

        monkeypatch.setattr(ClientSubnetOption, "decode",
                            classmethod(counting))
        prefixes = [Prefix.parse(f"10.0.{third_octet}.0/24")
                    for third_octet in (1, 2)]
        for prefix in prefixes:
            wire = make_query("www.cdn.example",
                              ecs=ClientSubnetOption(prefix)).encode()
            assert Message.decode(wire).client_subnet.prefix == prefix
        # One parse and one encode, of the first subnet's template;
        # the second subnet's address is checked but nothing else is.
        assert _decode_payload.cache_info()[:2] == (1, 1)
        assert _encode_payload.cache_info()[:2] == (1, 1)
        assert _label_text.cache_info()[:2] == (0, 3)
        # The first subnet's address, the template's zero address as
        # it is parsed, the second subnet's address.
        assert validated == [b"\x00\x01\x18\x00\x0a\x00\x01",
                             b"\x00\x01\x18\x00\x00\x00\x00",
                             b"\x00\x01\x18\x00\x0a\x00\x02"]

    def test_label_text_is_shared(self):
        assert _label_text(b"Example") is _label_text(b"Example")
        assert _label_text(b"Example") == "example"

    def test_bad_label_raises_every_time_and_is_not_kept(self):
        for raw in (b"w.w", b"w\xffw"):
            for _ in range(2):
                with pytest.raises(WireFormatError):
                    _label_text(raw)
        assert _label_text.cache_info().currsize == 0


class TestMemosStayBounded:
    def test_more_distinct_names_than_the_bound(self):
        bound = _name_plan.cache_info().maxsize
        assert bound == _label_text.cache_info().maxsize
        for number in range(bound + 500):
            wire = make_query(f"host{number}.cdn.example").encode()
            assert Message.decode(wire).question.name == (
                f"host{number}.cdn.example")
        assert _name_plan.cache_info().currsize == bound
        assert _label_text.cache_info().currsize == bound
        for memo in (*PAYLOAD_MEMOS, _question):
            info = memo.cache_info()
            assert bound + 500 > info.maxsize == info.currsize

    def test_hostile_queries(self):
        # The fuzz suite's random-bytes run with enough draws to
        # overflow a memo that kept everything it saw.  The server
        # echoes the question back, so hostile names reach the encode
        # memo too.
        rng = random.Random(15)
        server = AuthoritativeServer(1)
        header = b"\x00\x01\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        for _ in range(20000):
            label = bytes(rng.randrange(0x80)
                          for _ in range(rng.randrange(2, 8)))
            server.handle_query(
                header + bytes((len(label),)) + label
                + b"\x00\x00\x01\x00\x01", src_ip=42, now=0.0)
            server.handle_query(rng.randbytes(rng.randrange(64)),
                                src_ip=42, now=0.0)
        answered = server.queries_received - server.formerr_count
        for memo in (*NAME_MEMOS, *PAYLOAD_MEMOS, server._zone_memo):
            info = memo.cache_info()
            assert answered > info.maxsize == info.currsize


class TestPayloadMemoFloor:
    def test_a_tiny_rollout_repeats_nine_messages_in_ten(self):
        """Of the four messages in a CNAME + A resolution the two
        queries and the CNAME reply depend on the name alone; only the
        A reply varies with (provider, cluster).  That puts a floor of
        0.75 under the hit ratio however large the world, and a tiny
        world (40 clusters) sits well above it."""
        day = datetime.date(2014, 3, 1)
        repro.api.run(repro.api.ScenarioSpec(
            world=WorldConfig.tiny(), monitor=False,
            rollout=RolloutConfig(
                start_date=day, end_date=day + datetime.timedelta(days=7),
                rollout_start=day + datetime.timedelta(days=2),
                rollout_end=day + datetime.timedelta(days=5),
                sessions_per_day=1000, monthly_growth=0.0, seed=22)))
        for memo in PAYLOAD_MEMOS:
            info = memo.cache_info()
            assert info.hits + info.misses > 25000
            assert info.hits / (info.hits + info.misses) >= 0.9


class TestFlagsInterning:
    def test_same_word_same_object(self):
        for word in (0x0100, 0x8400, 0x8583, 0xFFFF):
            assert Flags.decode(word) is Flags.decode(word)
            assert Flags.decode(word).encode() == word & 0xFF8F

    def test_every_header_word_stays_within_the_bound(self):
        for word in range(0x10000):
            Flags.decode(word)
        info = Flags.decode.cache_info()
        assert info.currsize == info.maxsize
