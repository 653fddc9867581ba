"""Wire compatibility vectors: the codec's bytes may not change.

``tests/data/wire_vectors.json`` was written once, by the codec as it
stood before it was compiled (commit 66c1eda), from draws of the
``message_specs`` strategy below plus hand-built named cases.  There
is no switch to regenerate it: a vector that stops matching is a wire
change, which is either a bug or a decision to record by editing the
file by hand.

A *spec* is the JSON-able description of a message (``build`` turns it
into a :class:`Message`); the strategy draws specs rather than messages
so a vector can be stored beside its bytes.  Names are drawn lowercase
because that is what a decode returns; everything else a spec can say
round-trips as it is.
"""

import json
from pathlib import Path

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
    NSRdata,
    OpaqueRdata,
    OptRecord,
    Question,
    Rcode,
    ResourceRecord,
    SOARdata,
    TXTRdata,
    WireFormatError,
)
from repro.dnssrv import AuthoritativeServer, StaticZone, WhoAmIZone
from repro.net.ipv4 import Prefix

VECTORS = json.loads(
    (Path(__file__).parent / "data" / "wire_vectors.json").read_text())

# -- spec -> Message ---------------------------------------------------------


def _rdata(spec):
    kind, *fields = spec
    if kind == "A":
        return 1, ARdata(*fields)
    if kind == "NS":
        return 2, NSRdata(*fields)
    if kind == "CNAME":
        return 5, CNAMERdata(*fields)
    if kind == "SOA":
        return 6, SOARdata(*fields)
    if kind == "TXT":
        return 16, TXTRdata(tuple(bytes.fromhex(s) for s in fields[0]))
    rtype, payload = fields
    return rtype, OpaqueRdata(rtype, bytes.fromhex(payload))


def _record(spec):
    rtype, rdata = _rdata(spec["rdata"])
    return ResourceRecord(spec["name"], rtype, spec["ttl"], rdata,
                          spec["class"])


def _opt(spec):
    if spec is None:
        return None
    ecs = spec["ecs"]
    ecs6 = spec["ecs6"]
    return OptRecord(EdnsOptions(
        payload_size=spec["payload"],
        extended_rcode=spec["ext_rcode"],
        dnssec_ok=spec["do"],
        client_subnet=(None if ecs is None else ClientSubnetOption(
            Prefix(ecs[0], ecs[1]), ecs[2])),
        client_subnet_v6=(None if ecs6 is None else ClientSubnetV6Option(
            int(ecs6[0], 16), ecs6[1], ecs6[2])),
        unknown_options=tuple((code, bytes.fromhex(body))
                              for code, body in spec["unknown"])))


def build(spec) -> Message:
    return Message(
        msg_id=spec["id"],
        flags=Flags(**spec["flags"]),
        questions=[Question(*q) for q in spec["questions"]],
        answers=[_record(r) for r in spec["answers"]],
        authorities=[_record(r) for r in spec["authorities"]],
        additionals=[_record(r) for r in spec["additionals"]],
        opt=_opt(spec["opt"]))


# -- the strategy ------------------------------------------------------------

_PLAIN = "abcdefghijklmnopqrstuvwxyz0123456789-_"
# Legal on the wire, awkward in text: the codec must carry them.
_ODD = _PLAIN + " \t*@!\x00\x7f"
_labels = st.one_of(
    st.text(alphabet=_PLAIN, min_size=1, max_size=12),
    st.text(alphabet=_ODD, min_size=1, max_size=63))
# A small pool of shared suffixes, so compression pointers occur.
_SUFFIXES = ("", "example", "cdn.example", "a.cdn.example",
             "provider7.example", "net")
names = st.builds(
    lambda labels, suffix: ".".join(labels + ([suffix] if suffix else [])),
    st.lists(_labels, max_size=3), st.sampled_from(_SUFFIXES))

_u32 = st.integers(0, 0xFFFFFFFF)


def _hex(max_size):
    return st.binary(max_size=max_size).map(bytes.hex)


_rdatas = st.one_of(
    st.tuples(st.just("A"), _u32),
    st.tuples(st.just("NS"), names),
    st.tuples(st.just("CNAME"), names),
    st.tuples(st.just("SOA"), names, names, _u32, _u32, _u32, _u32, _u32),
    st.tuples(st.just("TXT"), st.lists(_hex(40), min_size=1, max_size=3)),
    st.tuples(st.just("TXT"), st.just(["61" * 255])),
    st.tuples(st.just("OPAQUE"), st.sampled_from((0, 28, 33, 99, 65535)),
              _hex(24)),
).map(list)
_records = st.fixed_dictionaries({
    "name": names,
    "ttl": st.integers(0, 0x7FFFFFFF),
    "class": st.sampled_from((1, 1, 3, 255)),
    "rdata": _rdatas,
})


@st.composite
def _ecs_v4(draw):
    # Zero-length, octet-aligned and the lengths in between.
    length = draw(st.sampled_from((0, 1, 8, 15, 17, 20, 23, 24, 25, 31, 32)))
    network = draw(_u32) >> (32 - length) << (32 - length)
    return [network, length, draw(st.integers(0, 32))]


@st.composite
def _ecs_v6(draw):
    length = draw(st.sampled_from((0, 1, 32, 47, 48, 56, 64, 127, 128)))
    address = draw(st.integers(0, (1 << 128) - 1)) >> (128 - length) << (
        128 - length)
    return [f"{address:032x}", length, draw(st.integers(0, 128))]


_opts = st.none() | st.fixed_dictionaries({
    "payload": st.sampled_from((0, 512, 1232, 4096, 65535)),
    "ext_rcode": st.sampled_from((0, 0, 0, 1, 255)),
    "do": st.booleans(),
    "ecs": st.none() | _ecs_v4(),
    "ecs6": st.none() | _ecs_v6(),
    "unknown": st.lists(
        st.tuples(st.sampled_from((10, 12, 65001)), _hex(12)).map(list),
        max_size=2),
})
_flags = st.fixed_dictionaries({
    "qr": st.booleans(), "opcode": st.sampled_from((0, 0, 2, 15)),
    "aa": st.booleans(), "tc": st.booleans(), "rd": st.booleans(),
    "ra": st.booleans(), "rcode": st.integers(0, 15),
})
_questions = st.tuples(
    names, st.sampled_from((1, 2, 5, 6, 16, 28, 255, 65535)),
    st.sampled_from((1, 1, 255))).map(list)
message_specs = st.fixed_dictionaries({
    "id": st.integers(0, 0xFFFF),
    "flags": _flags,
    "questions": st.lists(_questions, max_size=2),
    "answers": st.lists(_records, max_size=4),
    "authorities": st.lists(_records, max_size=2),
    "additionals": st.lists(_records, max_size=2),
    "opt": _opts,
})


# -- tests -------------------------------------------------------------------

def _ids(vectors):
    return [v.get("name", f"draw-{i:02d}") for i, v in enumerate(vectors)]


@pytest.mark.parametrize("vector", VECTORS["valid"],
                         ids=_ids(VECTORS["valid"]))
class TestValidVectors:
    def test_encode_reproduces_the_bytes(self, vector):
        assert build(vector["spec"]).encode().hex() == vector["wire"]

    def test_decode_returns_the_message(self, vector):
        assert (Message.decode(bytes.fromhex(vector["wire"]))
                == build(vector["spec"]))


def test_vectors_cover_the_named_shapes():
    """The file must keep the cases it exists for."""
    specs = [v["spec"] for v in VECTORS["valid"]]
    ecs = [s["opt"]["ecs"] for s in specs if s["opt"] and s["opt"]["ecs"]]
    assert any(length == 0 for _n, length, _s in ecs)
    assert any(length % 8 for _n, length, _s in ecs)
    assert any(scope > length for _n, length, scope in ecs)
    assert any(s["opt"] and s["opt"]["ecs6"] for s in specs)
    assert any(s["opt"] and s["opt"]["unknown"] for s in specs)
    assert any(s["opt"] and s["opt"]["do"] for s in specs)
    assert any(s["opt"] is None for s in specs)
    kinds = {r["rdata"][0] for s in specs
             for r in s["answers"] + s["authorities"] + s["additionals"]}
    assert kinds == {"A", "NS", "CNAME", "SOA", "TXT", "OPAQUE"}
    # A compression pointer somewhere in most of them.
    assert sum("c00c" in v["wire"] for v in VECTORS["valid"]) >= 10
    assert len(VECTORS["malformed"]) >= 11


@given(message_specs)
@settings(max_examples=200, deadline=None)
def test_fresh_draws_round_trip(spec):
    message = build(spec)
    wire = message.encode()
    assert Message.decode(wire) == message
    assert Message.decode(wire).encode() == wire


@pytest.mark.parametrize("vector", VECTORS["malformed"],
                         ids=[v["name"] for v in VECTORS["malformed"]])
class TestMalformedVectors:
    def test_decoder_rejects(self, vector):
        with pytest.raises(WireFormatError):
            Message.decode(bytes.fromhex(vector["wire"]))

    def test_authoritative_answers_formerr_or_drops(self, vector):
        server = AuthoritativeServer(1)
        server.attach_zone("cdn.example", StaticZone())
        server.attach_zone("whoami.cdn.example", WhoAmIZone())
        wire = bytes.fromhex(vector["wire"])
        out = server.handle_query(wire, src_ip=42, now=0.0)
        assert server.formerr_count == 1
        if out is None:
            assert len(wire) < 2
        else:
            reply = Message.decode(out)
            assert reply.flags.rcode == Rcode.FORMERR
            assert reply.flags.qr
            assert reply.msg_id == int.from_bytes(wire[:2], "big")
