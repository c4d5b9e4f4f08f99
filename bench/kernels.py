"""Direct timings of kernels the tracer cannot wrap from outside.

``fast_word_size`` and the wire codec are free functions their callers
import by name, so patching the module attribute would not reach them.  They
are timed here instead, on the payloads and inboxes the traced run captured
at ``Machine.send`` / ``Machine.drain``.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any

from repro.mpc.sizing import fast_word_size, word_size
from repro.runtime.wire import FRAME_HEADER, ShmRing, decode_obj, encode_obj, pack_inbox

#: a kernel is repeated until it has run this long, so the rate is not one timer tick
MIN_KERNEL_NS = 20_000_000


def _rate(work: float, fn: Any) -> float:
    """``work`` units per second of ``fn()``, repeated to at least :data:`MIN_KERNEL_NS`."""
    elapsed = passes = 0
    while elapsed < MIN_KERNEL_NS:
        start = perf_counter_ns()
        fn()
        elapsed += perf_counter_ns() - start
        passes += 1
    return work * passes / (elapsed / 1e9)


def sizing_rates(payloads: list) -> dict[str, float]:
    """Words sized per second by the fast and the reference sizer on the captured sends."""
    if not payloads:
        return {"mpc.sizing.fast_words_per_s": 0.0, "mpc.sizing.ref_words_per_s": 0.0}
    words = sum(word_size(tag) + word_size(payload) for tag, payload in payloads)

    def size_all(sizer: Any) -> None:
        for tag, payload in payloads:
            sizer(tag)
            sizer(payload)

    return {
        "mpc.sizing.fast_words_per_s": _rate(words, lambda: size_all(fast_word_size)),
        "mpc.sizing.ref_words_per_s": _rate(words, lambda: size_all(word_size)),
    }


def wire_rates(inboxes: list) -> dict[str, float]:
    """MB/s of the wire codec and of an in-process ring round trip on the captured inboxes."""
    names = ("runtime.wire.encode_mb_per_s", "runtime.wire.decode_mb_per_s", "runtime.wire.ring_mb_per_s")
    if not inboxes:
        return dict.fromkeys(names, 0.0)
    blobs = [encode_obj(pack_inbox(inbox)) for inbox in inboxes]
    megabytes = sum(len(blob) for blob in blobs) / 1e6
    # a local buffer, not a shared-memory segment: the ring arithmetic is the same and nothing can leak
    ring = ShmRing(bytearray(64 + 2 * (max(len(blob) for blob in blobs) + FRAME_HEADER)))

    def ring_round_trip() -> None:
        for blob in blobs:
            if not ring.write(blob):
                raise RuntimeError("benchmark ring sized for one frame refused it")
            ring.read_all()

    rates = (
        _rate(megabytes, lambda: [encode_obj(pack_inbox(inbox)) for inbox in inboxes]),
        _rate(megabytes, lambda: [decode_obj(blob) for blob in blobs]),
        _rate(megabytes, ring_round_trip),
    )
    return dict(zip(names, rates))
