"""Client-subnet templates return what the codec itself would.

A message whose only additional record is an OPT holding one IPv4 ECS
option (source > 0) ends in that option's address bytes.
``Message.decode`` looks such a message up without them and decodes
the real address into the template's sections; ``Message.encode``
encodes the message with its address zeroed and writes the real one
into the last bytes.  The oracle is the codec with no memo at all
(``_parse_message`` on the real bytes, ``_encode_payload.__wrapped__``
on the real sections): every decode must equal it in value or in the
error raised, and every encode in bytes, whatever template an earlier
subnet left behind.

Run as a module for a longer differential over seeded random draws::

    python -m tests.test_dnsproto_ecs_template 20000
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnsproto import (
    ARdata,
    ClientSubnetOption,
    ClientSubnetV6Option,
    CNAMERdata,
    EdnsOptions,
    Flags,
    Message,
    OptRecord,
    QType,
    Question,
    ResourceRecord,
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
from tests.test_dnsproto_vectors import VECTORS, build

MEMOS = (_decode_payload, _encode_payload)


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()


# -- the oracle --------------------------------------------------------------

def reference_decode(wire):
    """The parser on the real bytes, or the text of what it raised."""
    try:
        msg_id, flags, *sections, opt = _parse_message(wire)
    except WireFormatError as exc:
        return WireFormatError, str(exc)
    return Message(msg_id, flags, *map(list, sections), opt)


def decoded(wire):
    try:
        return Message.decode(wire)
    except WireFormatError as exc:
        return WireFormatError, str(exc)


def reference_encode(message):
    return message.msg_id.to_bytes(2, "big") + _encode_payload.__wrapped__(
        message.flags, tuple(message.questions), tuple(message.answers),
        tuple(message.authorities), tuple(message.additionals), message.opt)


def check_wire(wire):
    """Decode ``wire`` cold, warm, and under another ID."""
    expected = reference_decode(wire)
    assert decoded(wire) == expected
    assert decoded(wire) == expected
    if len(wire) >= 2:
        rewired = bytes((wire[0] ^ 0x5A, wire[1] ^ 0xA5)) + wire[2:]
        assert decoded(rewired) == reference_decode(rewired)


def check_message(message):
    """Encode ``message`` cold and warm, and decode what it encodes."""
    wire = reference_encode(message)
    assert message.encode() == wire
    assert message.encode() == wire
    check_wire(wire)


def address_len(message):
    """k when ``message`` ends in an IPv4 ECS address of k bytes, the
    OPT's only option and the only additional record; else 0."""
    opt = message.opt
    if message.additionals or opt is None:
        return 0
    options = opt.options
    ecs = options.client_subnet
    if (ecs is None or options.client_subnet_v6 is not None
            or options.unknown_options):
        return 0
    return (ecs.prefix.length + 7) // 8


def ecs_tail(wire):
    """(k, address bytes) of ``wire`` as :func:`address_len` reads its
    message."""
    k = address_len(Message.decode(wire))
    return k, wire[-k:] if k else b""


def with_address(wire, k, address):
    return wire[:-k] + address


# -- messages ------------------------------------------------------------------

NAMES = ("a.cdn.example", "www.provider7.example", "cdn.example",
         "b.a.cdn.example", "x.net")


def ecs_message(msg_id=7, name="a.cdn.example", source=24, scope=0,
                network=0x0A000100, answers=(), extra_options=None,
                additionals=(), flags=None):
    prefix = Prefix(network >> (32 - source) << (32 - source)
                    if source else 0, source)
    options = dict(client_subnet=ClientSubnetOption(prefix, scope))
    options.update(extra_options or {})
    return Message(msg_id, flags or Flags(), [Question(name)],
                   [ResourceRecord(name, QType.A, 60, ARdata(ip))
                    for ip in answers],
                   additionals=list(additionals),
                   opt=OptRecord(EdnsOptions(**options)))


def random_message(rng):
    """A message in the template shape most of the time, and one of the
    near misses the rest of it."""
    names = [rng.choice(NAMES) for _ in range(3)]
    answers = []
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.3:
            answers.append(ResourceRecord(names[0], QType.CNAME,
                                          rng.randrange(1 << 31),
                                          CNAMERdata(names[1])))
        else:
            answers.append(ResourceRecord(names[rng.randrange(3)], QType.A,
                                          rng.randrange(1 << 31),
                                          ARdata(rng.getrandbits(32))))
    source = rng.randrange(33)
    network = rng.getrandbits(32)
    prefix = Prefix(network >> (32 - source) << (32 - source)
                    if source else 0, source)
    options = {"client_subnet": ClientSubnetOption(prefix,
                                                   rng.randrange(33)),
               "payload_size": rng.choice((512, 1232, 4096)),
               "dnssec_ok": rng.random() < 0.2}
    additionals = []
    shape = rng.random()
    if shape < 0.05:
        options["client_subnet_v6"] = ClientSubnetV6Option(
            rng.getrandbits(64) << 64, 64, rng.randrange(129))
    elif shape < 0.10:
        options["unknown_options"] = ((rng.choice((10, 12, 65001)),
                                       rng.randbytes(rng.randrange(8))),)
    elif shape < 0.15:
        additionals.append(ResourceRecord(names[2], QType.A, 5,
                                          ARdata(rng.getrandbits(32))))
    return Message(rng.randrange(1 << 16), Flags.decode(rng.getrandbits(16)),
                   [Question(names[i]) for i in range(rng.randrange(1, 3))],
                   answers, additionals=additionals,
                   opt=OptRecord(EdnsOptions(**options)))


def check_random(rng):
    """One draw, checked once each way: the names come from a small
    pool, so the memos are warm for some draws and cold for others."""
    message = random_message(rng)
    wire = reference_encode(message)
    assert message.encode() == wire
    assert decoded(wire) == reference_decode(wire)
    k = address_len(message)
    if k:
        # Random address bytes (stray bits past the source length, or
        # none) through the template this draw left, then another
        # subnet's encode through it.
        stray = with_address(wire, k, rng.randbytes(k))
        assert decoded(stray) == reference_decode(stray)
        ecs = message.opt.options.client_subnet
        length = ecs.prefix.length
        other = rng.getrandbits(32) >> (32 - length) << (32 - length)
        message.with_client_subnet(ClientSubnetOption(
            Prefix(other, length), ecs.scope_prefix_len))
        assert message.encode() == reference_encode(message)


# -- tests ---------------------------------------------------------------------

class TestWireVectors:
    @pytest.mark.parametrize("vector", VECTORS["valid"])
    def test_valid(self, vector):
        message = build(vector["spec"])
        check_message(message)
        wire = bytes.fromhex(vector["wire"])
        k, address = ecs_tail(wire)
        if k:
            for byte in range(256):
                check_wire(with_address(wire, k, bytes((byte,)) * k))
            check_wire(wire)

    @pytest.mark.parametrize("vector", VECTORS["malformed"],
                             ids=[v["name"] for v in VECTORS["malformed"]])
    def test_malformed(self, vector):
        wire = bytes.fromhex(vector["wire"])
        # Cold, then after its last byte cleared (which mends the ECS
        # cases, and keeps their template), then warm.
        check_wire(wire)
        if wire:
            check_wire(wire[:-1] + b"\x00")
        check_wire(wire)

    def test_the_vectors_hold_template_messages(self):
        shapes = [ecs_tail(bytes.fromhex(v["wire"]))[0]
                  for v in VECTORS["valid"]]
        assert {3, 4} <= set(shapes)


class TestGeneratedMessages:
    @given(st.integers(0, 32), st.integers(0, 32), st.integers(0, 2**32 - 1),
           st.binary(min_size=4, max_size=4), st.sampled_from(NAMES),
           st.lists(st.integers(0, 2**32 - 1), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_source_scope_and_stray_bits(self, source, scope, network,
                                         stray, name, answers):
        message = ecs_message(source=source, scope=scope, network=network,
                              name=name, answers=answers)
        check_message(message)
        wire = reference_encode(message)
        k, _address = ecs_tail(wire)
        assert k == (source + 7) // 8
        if k:
            check_wire(with_address(wire, k, stray[:k]))
            check_message(message)

    def test_random_draws(self):
        rng = random.Random(37)
        for _ in range(1000):
            check_random(rng)


class TestNearMisses:
    """Messages one step from the template shape take the plain path
    and still decode and encode as the codec does."""

    @pytest.mark.parametrize("options", [
        {"client_subnet_v6": ClientSubnetV6Option(0x20010DB8 << 96, 32)},
        {"unknown_options": ((10, b"\x01\x02\x03"),)},
        {"unknown_options": ((65001, b""),)},
    ], ids=["v6-beside", "unknown-after", "empty-unknown-after"])
    def test_other_options(self, options):
        message = ecs_message(extra_options=options)
        check_message(message)
        assert ecs_tail(reference_encode(message)) == (0, b"")

    def test_v6_only(self):
        message = Message(3, questions=[Question("a.cdn.example")],
                          opt=OptRecord(EdnsOptions(
                              client_subnet_v6=ClientSubnetV6Option(
                                  0x20010DB8 << 96, 32))))
        check_message(message)

    def test_unknown_option_before_ecs(self):
        wire = bytearray(reference_encode(ecs_message()))
        ecs = wire[-11:]
        unknown = b"\x00\x0a\x00\x02\xbe\xef"
        wire[-13:] = (len(ecs) + len(unknown)).to_bytes(2, "big") + unknown
        wire += ecs
        check_wire(bytes(wire))
        assert Message.decode(bytes(wire)).opt.options.unknown_options

    def test_additional_record_beside_opt(self):
        record = ResourceRecord("x.net", QType.A, 5, ARdata(9))
        check_message(ecs_message(additionals=[record]))

    def test_unknown_option_that_looks_like_an_ecs_tail(self):
        # The last 22 bytes read as an OPT whose only option is an ECS
        # for 10.0.1.0/24, but they are the body of an unknown option
        # after the real ECS.
        fake = bytes.fromhex("00002910000000000000" "0b0008000700011800"
                             "0a0001")
        message = ecs_message(extra_options={
            "unknown_options": ((65001, fake),)})
        check_message(message)
        wire = reference_encode(message)
        assert wire[-22:] == fake
        check_wire(wire)

    def test_plain_opt_and_no_opt(self):
        check_message(make_query("a.cdn.example", msg_id=5))
        query = make_query("a.cdn.example", msg_id=5)
        query.opt = None
        check_message(query)


class TestCompression:
    def test_answers_point_at_the_question(self):
        message = ecs_message(answers=[1, 2, 3], name="b.a.cdn.example")
        wire = reference_encode(message)
        assert b"\xc0\x0c" in wire
        check_message(message)
        k, _address = ecs_tail(wire)
        check_wire(with_address(wire, k, b"\x0b\x16\x21"))

    def test_a_response_through_make_response(self):
        ecs = ClientSubnetOption(Prefix.parse("10.20.30.0/24"))
        query = make_query("a.cdn.example", msg_id=11, ecs=ecs)
        record = ResourceRecord("a.cdn.example", QType.A, 20, ARdata(77))
        check_message(query)
        check_message(make_response(query, answers=[record],
                                    scope_prefix_len=20))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_a_pointer_into_the_id(self, offset):
        # The question's name is a pointer to byte 0 or 1 of the ID:
        # what it reads depends on each message's own ID.
        tail = bytes.fromhex("01000001000000000001") + bytes(
            (0xC0, offset)) + bytes.fromhex(
            "00010001" "0000291000000000000b" "00080007000118000a0001")
        for msg_id in (0x0000, 0x0100, 0x0161, 0xC00C):
            check_wire(msg_id.to_bytes(2, "big") + tail)


def _main(argv):
    draws = int(argv[0]) if argv else 20000
    rng = random.Random(int(argv[1]) if len(argv) > 1 else 2015)
    for _ in range(draws):
        check_random(rng)
    print(f"{draws} draws: decode and encode equal the codec's own, "
          f"decode memo {_decode_payload.cache_info()}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
