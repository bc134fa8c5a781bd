"""Helpers of the slotted (``concurrency=K``) issue policy.

The scheduler itself is :meth:`repro.core.engine.CrawlEngine.run`; this
module holds what sits beside it: the degenerate clock the K=1
equivalence contract is stated under, and the (de)serialisers of an
in-flight fetch's response for the checkpoint's ``sched`` section
(format v2).  Page records are re-attached from the crawl log on restore
— they are a pure function of the dataset.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.core.timing import TimingModel
from repro.errors import CheckpointError
from repro.urlkit.normalize import intern_url
from repro.webspace.virtualweb import FetchResponse

__all__ = [
    "zero_latency_timing",
    "response_to_dict",
    "response_from_dict",
]


def zero_latency_timing() -> TimingModel:
    """A timing model under which every fetch completes instantly.

    Infinite bandwidth (``size / inf == 0.0``), zero latency, zero
    politeness: all completion times are 0.0 and ties resolve purely on
    issue order.  This is the configuration the K=1 ≡ round-based
    equivalence contract is stated (and tested) under.
    """
    return TimingModel(
        bandwidth_bytes_per_s=float("inf"),
        latency_s=0.0,
        politeness_interval_s=0.0,
    )


def response_to_dict(response: FetchResponse) -> dict:
    """JSON form of an in-flight fetch's response (checkpoint ``sched``).

    The page record is *not* serialised — it is a pure function of the
    dataset, so only its presence is recorded (``has_record``) and
    :func:`response_from_dict` re-attaches it from the crawl log.  The
    body (present only under body synthesis, possibly garbled by the
    fault layer) travels as base64.
    """
    entry: dict = {
        "url": response.url,
        "status": response.status,
        "content_type": response.content_type,
        "charset": response.charset,
        "outlinks": list(response.outlinks),
        "size": response.size,
        "truncated": response.truncated,
        "fault": response.fault,
        "redirect_to": response.redirect_to,
        "adversary": response.adversary,
        "has_record": response.record is not None,
    }
    if response.body is not None:
        entry["body"] = base64.b64encode(response.body).decode("ascii")
    return entry


def response_from_dict(entry: dict, crawl_log: Any) -> FetchResponse:
    """Inverse of :func:`response_to_dict`, re-attaching the page record."""
    url = intern_url(entry["url"])
    record = None
    if entry["has_record"]:
        record = crawl_log.get(url)
        if record is None:
            raise CheckpointError(
                f"checkpointed in-flight fetch of {url!r} has no record in this "
                "crawl log; resume against the web space the checkpoint was "
                "taken from"
            )
    body_b64 = entry.get("body")
    return FetchResponse(
        url=url,
        status=entry["status"],
        content_type=entry["content_type"],
        charset=entry["charset"],
        outlinks=tuple(intern_url(link) for link in entry["outlinks"]),
        size=entry["size"],
        body=base64.b64decode(body_b64) if body_b64 is not None else None,
        record=record,
        truncated=entry["truncated"],
        fault=entry["fault"],
        # .get: format-v2 checkpoints predate the adversary layer.
        redirect_to=entry.get("redirect_to"),
        adversary=entry.get("adversary"),
    )
