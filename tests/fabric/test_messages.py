"""Fabric protocol messages and the pcap capture format."""

import dataclasses
import struct

import pytest

from repro.errors import FabricError
from repro.fabric.messages import (
    KIND_DIP,
    Ack,
    Advance,
    Deliver,
    Inject,
)
from repro.fabric.pcap import (
    LINKTYPE_USER0,
    MAGIC_MICRO,
    MAGIC_NANO,
    read_pcap,
    write_pcap,
)


class TestMessages:
    def test_all_messages_are_frozen(self):
        deliver = Deliver(1.0, "a", "b", 0, KIND_DIP, b"x", 1, 1)
        advance = Advance("a", "b", 0, 2.0)
        inject = Inject(0.0, "a", 0, KIND_DIP, b"x", 1)
        ack = Ack("a", 1.0, 0)
        for message in (deliver, advance, inject, ack):
            with pytest.raises(dataclasses.FrozenInstanceError):
                message.time = 9.0  # type: ignore[misc]

    def test_messages_pickle_roundtrip(self):
        import pickle

        deliver = Deliver(1.5, "src", "dst", 2, KIND_DIP, b"wire", 4, 7)
        assert pickle.loads(pickle.dumps(deliver)) == deliver

    def test_inject_default_seq(self):
        assert Inject(0.0, "a", 0, KIND_DIP, b"", 0).seq == 0


class TestPcapFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        frames = [(0.0, b"alpha"), (1.25, b"beta"), (2.000001, b"g")]
        assert write_pcap(path, frames) == 3
        back = read_pcap(path)
        assert [p for _, p in back] == [b"alpha", b"beta", b"g"]
        for (t_in, _), (t_out, _) in zip(frames, back):
            assert t_out == pytest.approx(t_in, abs=1e-6)

    def test_global_header_fields(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        write_pcap(path, [(0.5, b"x")])
        with open(path, "rb") as fh:
            head = fh.read(24)
        magic, major, minor, _, _, snaplen, linktype = struct.unpack(
            "<IHHiIII", head
        )
        assert magic == MAGIC_MICRO
        assert (major, minor) == (2, 4)
        assert linktype == LINKTYPE_USER0
        assert snaplen == 65535

    def test_reads_big_endian(self, tmp_path):
        path = str(tmp_path / "be.pcap")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IHHiIII", MAGIC_MICRO, 2, 4, 0, 0, 65535, 147))
            fh.write(struct.pack(">IIII", 3, 500000, 2, 2))
            fh.write(b"hi")
        [(when, payload)] = read_pcap(path)
        assert payload == b"hi"
        assert when == pytest.approx(3.5)

    def test_reads_nanosecond_magic(self, tmp_path):
        path = str(tmp_path / "ns.pcap")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<IHHiIII", MAGIC_NANO, 2, 4, 0, 0, 65535, 147))
            fh.write(struct.pack("<IIII", 1, 250_000_000, 1, 1))
            fh.write(b"z")
        [(when, _)] = read_pcap(path)
        assert when == pytest.approx(1.25)

    def test_not_a_pcap(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(FabricError, match="not a pcap"):
            read_pcap(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(FabricError, match="truncated"):
            read_pcap(str(path))

    def test_truncated_record(self, tmp_path):
        path = str(tmp_path / "trunc.pcap")
        write_pcap(path, [(0.0, b"full-payload")])
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-4])
        with pytest.raises(FabricError, match="truncated pcap record"):
            read_pcap(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        with pytest.raises(FabricError, match="negative"):
            write_pcap(str(tmp_path / "n.pcap"), [(-1.0, b"x")])

    def test_rounding_carry_into_next_second(self, tmp_path):
        path = str(tmp_path / "carry.pcap")
        write_pcap(path, [(1.9999999, b"x")])
        [(when, _)] = read_pcap(path)
        assert when == pytest.approx(2.0)
