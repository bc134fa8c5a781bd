"""Content-level adversaries over the virtual web space.

``repro.faults`` models *infrastructure* failure — hosts that 503, time
out or disappear.  This package models the web itself misbehaving:
spider traps that sprout unbounded synthetic subtrees, 301 chains (some
of them loops), soft-404s that answer 200 with boilerplate, hostile
hosts that churn session-id aliases for the same content, and pages
whose declared charset lies about their bytes.

The layering mirrors :class:`~repro.faults.FaultyWebSpace`:
:class:`AdversarialWebSpace` wraps a
:class:`~repro.webspace.virtualweb.VirtualWebSpace` behind the unmodified
``fetch`` interface, and every decision is a keyed hash of a stable
token, so the same seed replays the same adversarial web and survives
checkpoint/resume.

The matching engine-side countermeasures live in
:mod:`repro.adversary.defense` (:class:`DefenseConfig` /
:class:`DefensePolicy`) and plug into the gate/extract stages of
:class:`~repro.core.engine.CrawlEngine`.
"""

from repro.adversary.defense import DefenseConfig, DefensePolicy, shingle_hash
from repro.adversary.model import (
    AdversaryModel,
    AdversaryProfile,
)
from repro.adversary.web import AdversarialWebSpace

__all__ = [
    "AdversarialWebSpace",
    "AdversaryModel",
    "AdversaryProfile",
    "DefenseConfig",
    "DefensePolicy",
    "shingle_hash",
]
