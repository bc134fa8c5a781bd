"""The universe build's memory, in bytes per link slot.

Link slots are most of a build's rows (the out-degree is heavy-tailed),
and the link phase of :func:`generate_columns` is the build's peak.  It
holds each slot about once: int32 page ids while sampling, and a CSR
dedupe run on row-cut chunks of about 64k slots beside one keep mask.
A one-shot ``np.unique`` over every slot's int64 key, the form this
replaced, holds about ten slot-sized int64 arrays at once and puts the
traced peak near 97 bytes per slot on this web; the chunked form is
near 64.  The bound leaves room for allocator and numpy-version drift,
not for a second slot-sized int64 temporary.
"""

from __future__ import annotations

import tracemalloc

from repro.graphgen import generator
from repro.graphgen.profiles import thai_profile

#: Traced peak of ``generate_columns`` on Thai ×0.25, per link slot.
PEAK_BYTES_PER_SLOT = 75


def test_generate_columns_peak_per_link_slot(monkeypatch):
    build_edges = generator.build_edges
    slots: list[int] = []

    def counting_build_edges(*args, **kwargs):
        sources, targets = build_edges(*args, **kwargs)
        slots.append(len(sources))
        return sources, targets

    monkeypatch.setattr(generator, "build_edges", counting_build_edges)
    profile = thai_profile().scaled(0.25)
    tracemalloc.start()
    try:
        columns = generator.generate_columns(profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert slots and slots[0] > 100_000
    assert len(columns.link_targets) <= slots[0]
    per_slot = peak / slots[0]
    assert per_slot <= PEAK_BYTES_PER_SLOT, (
        f"generate_columns traced peak {peak / 1e6:.1f} MB over {slots[0]} link slots "
        f"is {per_slot:.1f} B/slot, over the {PEAK_BYTES_PER_SLOT} B/slot budget"
    )
