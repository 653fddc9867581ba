"""The whole-message memos return what the codec itself would.

``Message.decode`` and ``Message.encode`` look a message up by
everything but its ID before they parse or encode it.  The oracle
throughout is the same parser and encoder with the memo taken away
(``_parse_message`` on the real bytes, ``_encode_payload.__wrapped__``),
so these tests say nothing about what the bytes should be --
``test_dnsproto_vectors`` does -- only that remembering changes
nothing: not the answer, not who owns it, not which inputs raise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnsproto import (
    ARdata,
    ClientSubnetOption,
    Message,
    QType,
    Question,
    ResourceRecord,
    TXTRdata,
    WireFormatError,
    make_query,
    make_response,
)
from repro.dnsproto.message import (
    _decode_payload,
    _encode_payload,
    _parse_message,
)
from repro.net.ipv4 import Prefix
from tests.test_dnsproto_vectors import VECTORS, build, message_specs

MEMOS = (_decode_payload, _encode_payload)


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _sizes():
    return [memo.cache_info().currsize for memo in MEMOS]


def _reference_decode(wire):
    msg_id, flags, *sections, opt = _parse_message(wire)
    return Message(msg_id, flags, *map(list, sections), opt)


def _outcome(decode, wire):
    try:
        return decode(wire)
    except WireFormatError as exc:
        return str(exc)


def _reference_encode(message):
    return message.msg_id.to_bytes(2, "big") + _encode_payload.__wrapped__(
        message.flags, tuple(message.questions), tuple(message.answers),
        tuple(message.authorities), tuple(message.additionals), message.opt)


def _check_differential(message):
    wire = _reference_encode(message)
    reference = _reference_decode(wire)
    assert message.encode() == wire            # cold
    assert message.encode() == wire            # warm
    assert Message.decode(wire) == reference   # cold
    assert Message.decode(wire) == reference   # warm
    other_id = message.msg_id ^ 0xA5A5
    rewired = other_id.to_bytes(2, "big") + wire[2:]
    assert Message.decode(rewired) == _reference_decode(rewired)
    assert Message.decode(rewired).msg_id == other_id
    message.msg_id = other_id
    assert message.encode() == rewired
    assert _decode_payload.cache_info().hits >= 2
    assert _encode_payload.cache_info().hits >= 2


class TestDifferential:
    @given(message_specs)
    @settings(max_examples=150, deadline=None)
    def test_generated_messages(self, spec):
        for memo in MEMOS:
            memo.cache_clear()
        _check_differential(build(spec))

    @pytest.mark.parametrize("vector", VECTORS["valid"])
    def test_valid_vectors(self, vector):
        _check_differential(build(vector["spec"]))

    @pytest.mark.parametrize("vector", VECTORS["malformed"],
                             ids=[v["name"] for v in VECTORS["malformed"]])
    def test_malformed_vectors_raise_every_time_and_are_not_kept(
            self, vector):
        wire = bytes.fromhex(vector["wire"])
        for _ in range(2):
            with pytest.raises(WireFormatError) as raised:
                Message.decode(wire)
            with pytest.raises(WireFormatError) as expected:
                _parse_message(wire)
            assert str(raised.value) == str(expected.value)
        assert _sizes() == [0, 0]

    @given(st.integers(0, 0xFFFF), st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_a_pointer_into_the_id_reads_the_real_id(self, msg_id, offset):
        """A name may point at the two bytes the key leaves out; what
        it reads there must be this message's ID, whatever was
        decoded before."""
        tail = (b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                + bytes((0xC0, offset)) + b"\x00\x01\x00\x01")
        wires = [msg_id.to_bytes(2, "big") + tail, b"\x00\x00" + tail]
        for wire in wires + wires:
            assert _outcome(Message.decode, wire) == _outcome(
                _reference_decode, wire)


class TestIsolation:
    """The memo shares frozen records, never a caller's lists."""

    def _wire(self):
        query = make_query("www.cdn.example", msg_id=9)
        record = ResourceRecord("www.cdn.example", QType.A, 20,
                                ARdata(0x0A000001))
        return make_response(query, answers=[record]).encode(), record

    def test_mutating_a_decoded_message_leaves_the_next_one_alone(self):
        wire, record = self._wire()
        pristine = _reference_decode(wire)
        first = Message.decode(wire)
        first.answers.append(record)
        first.questions.clear()
        first.authorities.append(record)
        first.additionals.append(record)
        first.with_client_subnet(
            ClientSubnetOption(Prefix.parse("10.1.2.0/24")))
        second = Message.decode(wire)
        assert second == pristine
        assert second.answers is not first.answers
        assert first.encode() != wire

    def test_mutating_an_encoded_message_changes_its_bytes(self):
        wire, record = self._wire()
        message = Message.decode(wire)
        assert message.encode() == wire
        message.answers.append(record)
        assert message.encode() == _reference_encode(message) != wire


class TestKeyHygiene:
    """Values that hash like a remembered one but do not pack like it
    get the encoder's own verdict, warm memo or not."""

    def _message(self, ttl, msg_id=1):
        # ResourceRecord only range-checks its TTL, so 20.0 and True
        # get as far as the encoder.
        return Message(msg_id=msg_id, questions=[Question("a.example")],
                       answers=[ResourceRecord("a.example", QType.A, ttl,
                                               ARdata(1))])

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_float_ttl_is_rejected(self, warm):
        if warm:
            self._message(20).encode()
        with pytest.raises(WireFormatError, match="record field"):
            self._message(20.0).encode()
        assert self._message(20).encode() == _reference_encode(
            self._message(20))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bool_ttl_packs_as_one(self, warm):
        if warm:
            self._message(20).encode()
            self._message(1).encode()
        before = _sizes()
        assert self._message(True).encode() == _reference_encode(
            self._message(1))
        assert _sizes() == before

    @pytest.mark.parametrize("msg_id", [70000, -1, 5.0])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_id_out_of_range_is_rejected(self, warm, msg_id):
        if warm:
            self._message(20, msg_id=1).encode()
        with pytest.raises(WireFormatError, match="header field"):
            self._message(20, msg_id=msg_id).encode()

    def test_float_qtype_does_not_borrow_the_int_question(self):
        assert make_query("a.example", 1).question.qtype == 1
        with pytest.raises(WireFormatError, match="question field"):
            make_query("a.example", 1.0).encode()

    def test_an_unhashable_field_still_encodes(self):
        record = ResourceRecord("a.example", QType.TXT, 5,
                                TXTRdata([b"on a list"]))
        message = Message(answers=[record])
        assert message.encode() == _reference_encode(message)
        assert _sizes() == [0, 0]

    def test_unencodable_is_not_kept(self):
        message = Message(questions=[Question("x" * 64 + ".example")])
        for _ in range(2):
            with pytest.raises(WireFormatError):
                message.encode()
        assert _sizes() == [0, 0]
