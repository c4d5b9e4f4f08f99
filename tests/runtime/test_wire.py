"""Wire codec round-trips for the flat layout types.

The slot-routing suite covers the ring mechanics (wrap, backlog, torn
headers on raw frames); this file pins the *codec* contract the CSR recut
leans on: registered layout types (:class:`~repro.mpc.layout.MachineCSR`,
:class:`~repro.mpc.layout.AliveTable`) and naked buffers must survive
:func:`encode_obj`/:func:`decode_obj` bit-for-bit via the buffer-lifted
marshal path — never the silent marshal corruption of naked buffers, and
falling back to pickle only for genuinely unliftable frames — including
when the frames ride a shared-memory ring.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.mpc.layout import AliveTable, MachineCSR, build_machine_csr
from repro.runtime.wire import ShmRing, TornFrameError, decode_obj, encode_obj

WORKERS = ["w0", "w1", "w2"]


def sample_csr(weighted: bool = True) -> MachineCSR:
    adjacency = {4: [1, 7, 9], 7: [4], 9: [4, 12]}
    weight = (lambda v, w: float(v + w) / 2) if weighted else None
    return build_machine_csr(sorted(adjacency), lambda v: adjacency[v], weight, WORKERS)


class TestBufferLifting:
    def test_marshal_path_for_plain_frames(self):
        frame = (1, "round", [2, 3], {"a": (4, 5)})
        blob = encode_obj(frame)
        assert blob[:1] == b"M"
        assert decode_obj(blob) == frame

    @pytest.mark.parametrize(
        "buf",
        [bytearray(b"\x01\x00\x01"), array("q", [3, 1, 4]), array("d", [0.5, 2.25])],
        ids=["bytearray", "array-q", "array-d"],
    )
    def test_buffers_on_the_lifted_path_survive_with_exact_type(self, buf):
        # Pair the buffer with a registered type: marshal loudly rejects the
        # class instance, forcing the lifted path that rewrites *both* into
        # sentinels.  (A buffers-only frame would marshal directly — the
        # silent bytes-corruption documented in ``repro.runtime.wire`` —
        # which is exactly why every layout value is class-wrapped.)
        frame = {"key": buf, "alive": AliveTable(), "rest": [1, 2]}
        blob = encode_obj(frame)
        assert blob[:1] == b"A"
        back = decode_obj(blob)["key"]
        assert type(back) is type(buf)
        assert back == buf

    def test_wire_marker_collision_is_escaped(self):
        frame = ("__wire__", "bya", b"not a buffer")
        blob = encode_obj(frame)
        assert decode_obj(blob) == frame

    def test_unliftable_frame_falls_back_to_pickle(self):
        frame = {"exc": ValueError("shipped failure"), "round": 3}
        blob = encode_obj(frame)
        assert blob[:1] == b"P"
        back = decode_obj(blob)
        assert back["round"] == 3
        assert isinstance(back["exc"], ValueError)
        assert back["exc"].args == ("shipped failure",)


class TestLayoutTypeRoundTrips:
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_machine_csr_round_trip(self, weighted):
        csr = sample_csr(weighted)
        blob = encode_obj({"store": {"csr": csr}})
        assert blob[:1] == b"A"
        back = decode_obj(blob)["store"]["csr"]
        assert type(back) is MachineCSR
        assert back == csr
        assert back.dmpc_words() == csr.dmpc_words()
        # materialized ownership survives too — kernels index it directly
        assert list(back.owner_pos) == list(csr.owner_pos)

    @pytest.mark.parametrize(
        "ship",
        [lambda csr: decode_obj(encode_obj({"csr": csr}))["csr"], lambda csr: pickle.loads(pickle.dumps(csr))],
        ids=["wire-codec", "pickle"],
    )
    def test_send_plan_round_trip(self, ship):
        csr = sample_csr()
        csr.send_plan()  # a warm cache must not travel (or be needed) on the far side
        back = ship(csr)
        for column in ("plan_indices", "plan_sources", "plan_spans"):
            assert type(getattr(back, column)) is array
            assert getattr(back, column) == getattr(csr, column)
        neighbours, sources, spans = back.send_plan()
        assert (neighbours, sources, spans) == csr.send_plan()
        # the plan is the CSR's own entries regrouped: every target's slice
        # lists exactly the entries that target owns, in entry order
        entries = [(v, w) for row, v in enumerate(csr.verts) for w in csr.indices[slice(*csr.row_bounds(row))]]
        assert [pos for pos, _, _ in spans] == list(dict.fromkeys(csr.owner_pos))
        assert [stop - start for _, start, stop in spans] == [list(csr.owner_pos).count(pos) for pos, _, _ in spans]
        for pos, start, stop in spans:
            assert list(zip(sources[start:stop], neighbours[start:stop])) == [
                entry for entry, owner in zip(entries, csr.owner_pos) if owner == pos
            ]

    def test_alive_table_round_trip(self):
        table = AliveTable({"w0": bytearray(b"\x01\x01\x00"), "w1": bytearray()})
        back = decode_obj(encode_obj([("edge_alive", table)]))[0][1]
        assert type(back) is AliveTable
        assert back == table
        assert all(type(row) is bytearray for row in back.rows.values())

    def test_csr_frame_rides_a_ring(self):
        ring = ShmRing(bytearray(16 + 4096))
        frame = {"csr": sample_csr(), "alive": AliveTable({"w0": bytearray(b"\x01")})}
        assert ring.write(encode_obj(frame))
        (blob,) = ring.read_all()
        back = decode_obj(blob)
        assert back["csr"] == frame["csr"]
        assert back["alive"] == frame["alive"]

    def test_torn_csr_frame_fails_loudly(self):
        buf = bytearray(16 + 4096)
        ring = ShmRing(buf)
        assert ring.write(encode_obj({"csr": sample_csr()}))
        # clobber the frame header in place — a reader must refuse the
        # frame rather than hand garbage to the codec
        buf[16] ^= 0xFF
        with pytest.raises(TornFrameError):
            ring.read_all()
