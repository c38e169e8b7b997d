"""Wire protocol: strict validation in, structured errors out."""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    error_reply,
    ok_reply,
    parse_request,
)


def arrive_line(**overrides) -> str:
    obj = {"op": "arrive", "id": 7, "arrival": 0.0, "departure": 4.0,
           "size": 0.5}
    obj.update(overrides)
    return json.dumps(obj)


class TestParseValid:
    def test_arrive(self):
        req = parse_request(arrive_line(seq=12, tenant="acme"))
        assert req.op == "arrive"
        assert req.seq == 12
        assert req.id == "7"  # ids normalise to strings
        assert req.tenant == "acme"
        assert req.arrival == 0.0
        assert req.departure == 4.0
        assert req.size == 0.5

    def test_arrive_bytes_line(self):
        req = parse_request(arrive_line().encode())
        assert req.op == "arrive"

    def test_adaptive_arrive_has_no_departure(self):
        req = parse_request(arrive_line(departure=None))
        assert req.departure is None

    def test_depart(self):
        req = parse_request('{"op": "depart", "id": "x", "time": 3.5}')
        assert req.op == "depart"
        assert req.id == "x"
        assert req.time == 3.5

    def test_advance(self):
        req = parse_request('{"op": "advance", "time": 9}')
        assert req.time == 9.0

    @pytest.mark.parametrize("op", ["stats", "ping"])
    def test_bare_ops(self, op):
        assert parse_request(json.dumps({"op": op})).op == op

    def test_pinned_matching_version_accepted(self):
        req = parse_request(arrive_line(v=PROTOCOL_VERSION))
        assert req.op == "arrive"

    def test_to_item_carries_the_uid(self):
        item = parse_request(arrive_line()).to_item(41)
        assert (item.uid, item.arrival, item.departure, item.size) == (
            41, 0.0, 4.0, 0.5,
        )


class TestRoutingKey:
    def test_tenant_wins(self):
        req = parse_request(arrive_line(tenant="t1"))
        assert req.routing_key == "t1"

    def test_falls_back_to_id(self):
        assert parse_request(arrive_line()).routing_key == "7"


def code_of(excinfo) -> str:
    assert excinfo.value.code in ERROR_CODES
    return excinfo.value.code


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request("{nope")
        assert code_of(ei) == "bad-json"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request("[1, 2]")
        assert code_of(ei) == "bad-json"

    def test_not_utf8(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(b"\xff\xfe{}")
        assert code_of(ei) == "bad-json"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request('{"op": "explode"}')
        assert code_of(ei) == "bad-request"
        assert "explode" in ei.value.message

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request("{}")
        assert code_of(ei) == "bad-request"

    def test_wrong_version(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(v=99))
        assert code_of(ei) == "bad-version"

    @pytest.mark.parametrize("field", ["id", "arrival", "size"])
    def test_missing_arrive_field(self, field):
        obj = json.loads(arrive_line())
        del obj[field]
        with pytest.raises(ProtocolError) as ei:
            parse_request(json.dumps(obj))
        assert code_of(ei) == "bad-request"
        assert field in ei.value.message

    @pytest.mark.parametrize(
        "overrides",
        [{"arrival": "soon"}, {"size": True}, {"arrival": float("nan")},
         {"departure": float("inf")}],
        ids=["string", "bool", "nan", "inf"],
    )
    def test_non_numeric_fields(self, overrides):
        # NaN/inf survive json.dumps via allow_nan, so they must be
        # caught by the finiteness check rather than the type check
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(**overrides))
        assert code_of(ei) == "bad-request"

    @pytest.mark.parametrize(
        "overrides",
        [{"size": 0.0}, {"size": 1.5}, {"departure": -1.0},
         {"departure": 0.0}],
        ids=["zero-size", "oversize", "departs-before", "zero-interval"],
    )
    def test_item_semantics(self, overrides):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(**overrides))
        assert code_of(ei) == "bad-item"

    def test_bad_seq_type(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(seq=[1]))
        assert code_of(ei) == "bad-request"

    def test_seq_is_echoed_in_the_error(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(size=0.0, seq=77))
        assert ei.value.reply()["seq"] == 77


class TestReplies:
    def test_ok_reply_envelope(self):
        reply = ok_reply("arrive", seq=3, bin=2, opened=True)
        assert reply == {"ok": True, "op": "arrive", "seq": 3, "bin": 2,
                         "opened": True}

    def test_seq_omitted_when_absent(self):
        assert "seq" not in ok_reply("ping")
        assert "seq" not in error_reply("internal", "boom")

    def test_error_reply_envelope(self):
        reply = error_reply("overloaded", "queue full", seq=9,
                            retry_after=0.05)
        assert reply["ok"] is False
        assert reply["error"] == "overloaded"
        assert reply["retry_after"] == 0.05
        assert reply["seq"] == 9

    def test_encode_decode_round_trip(self):
        reply = ok_reply("stats", seq="s-1", totals={"cost": 1.5})
        line = encode(reply)
        assert line.endswith(b"\n")
        assert decode(line) == reply

    @pytest.mark.parametrize(
        "obj",
        [
            ok_reply("arrive", seq=3, id="a-1", uid=7, bin=2, opened=True,
                     shard=0, latency_us=12.345),
            ok_reply("stats", seq="s-1", totals={"cost": 1.5, "errors": 0,
                                                 "error_codes": {}}),
            error_reply("out-of-order", "arrival 1.0 < clock 5.0", seq=9,
                        id="x", shard=1, clock=5.0),
            error_reply("bad-json", "not JSON: ünïcode \u2028"),
            # only ``default=float`` can encode these
            ok_reply("advance", time=Fraction(1, 3), cost=Decimal("2.5")),
        ],
        ids=["ok-arrive", "ok-stats", "err-order", "err-unicode", "default"],
    )
    def test_encode_bytes_match_plain_json_dumps(self, obj):
        expected = (
            json.dumps(obj, separators=(",", ":"), default=float) + "\n"
        ).encode("utf-8")
        assert encode(obj) == expected

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            decode(b"[]\n")

    def test_every_op_is_listed(self):
        assert set(OPS) == {
            "arrive", "depart", "advance", "stats", "ping", "telemetry",
            "profile",
        }
