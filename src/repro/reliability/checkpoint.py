"""Crash-safe checkpointing of a running closed-loop orchestrator.

A checkpoint is a single self-validating record file::

    REPRO-CKPT\\n
    {json header: format, kind, tick, application, policy, payload sha256}\\n
    <pickle payload>

The same container format (magic + JSON header + sha256-checksummed
pickle, atomic tmp+replace writes) is shared with the model registry
(:mod:`repro.lifecycle.registry`) through :func:`write_record` /
:func:`read_record`; the header's ``kind`` field tells record types
apart (``"checkpoint"`` for orchestrators, ``"model"`` for registry
entries).

For checkpoints the payload is one :mod:`pickle` of the whole
:class:`~repro.orchestrator.loop.Orchestrator` object graph.  One
pickle (rather than per-component state dicts) is load-bearing: the
simulation's containers are *shared* between the cluster state and the
policy's telemetry streams, and pickling the graph in one pass
preserves that aliasing exactly.  Everything that makes the loop
deterministic rides along -- ``TemporalState`` cumulative sums, metric
ring buffers, ``np.random.Generator`` bit-generator states, counter
accumulators, fallback health states and the orchestrator's own tick
accounting -- so a resumed run replays the remaining ticks bitwise
identically to an uninterrupted one.

The header also records the sha256 fingerprint of the serving model
(``model_fingerprint``) when the policy exposes one, so a resume can
refuse to continue a run with a model other than the one it was
checkpointed with (see ``Orchestrator.resume_from``).

Compatibility caveats (also documented in ``docs/api_overview.md``):
checkpoints are pickles, so they are **not** portable across repo
versions that change any participating class, and must only be loaded
from trusted files (pickle executes code by design).  The header's
sha256 catches truncation and bit rot, not malice.

Writes are atomic: the blob goes to a sibling temp file first and is
``os.replace``-d into place, so a crash *during* checkpointing can
never leave a half-written file at the target path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from pathlib import Path

from repro import obs

__all__ = [
    "CheckpointError",
    "model_fingerprint",
    "write_record",
    "read_record",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = b"REPRO-CKPT\n"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or incompatible."""


class _CanonicalPickler(pickle._Pickler):
    """A pickler whose byte stream depends only on *values*, not on
    object identity.

    Raw ``pickle.dumps`` memoizes by ``id()``: when two attributes
    alias one interned string (or one cached numpy dtype) the second
    occurrence is a short memo reference, but after an unpickle those
    occurrences are distinct objects and get re-emitted in full.  The
    bytes then differ between a freshly-trained model and the same
    model rebuilt from a checkpoint, even though they are value-equal.
    Disabling the memo serializes every occurrence by value, so
    value-equal object graphs hash identically regardless of process
    history.  Only safe for acyclic graphs -- a cycle would recurse
    forever -- which holds for our model objects (plain attribute trees
    of arrays, tuples and scalars).
    """

    def memoize(self, obj):  # noqa: ARG002 - deliberate no-op
        pass


def model_fingerprint(model) -> str:
    """sha256 over the model's canonical (identity-free) pickled bytes.

    Two fingerprints agree iff the models are value-equal -- including
    a model that went through a checkpoint/resume or registry
    save/load cycle, where raw pickle bytes would differ because
    string/dtype sharing does not survive the round trip.
    """
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(model)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


def write_record(path, payload, fields: dict, *, kind: str = "checkpoint") -> dict:
    """Atomically write one self-validating record file.

    ``payload`` is pickled unless already ``bytes``; ``fields`` are
    merged into the header next to the format/kind/checksum keys.
    Returns the header that was stored.
    """
    path = Path(path)
    if not isinstance(payload, bytes):
        payload = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "format": FORMAT_VERSION,
        "kind": kind,
        **fields,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = _MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    temp = path.with_name(path.name + ".tmp")
    temp.write_bytes(blob)
    os.replace(temp, path)
    return header


def read_record(path, *, kind: str | None = None) -> tuple[dict, bytes]:
    """Parse one record file; verifies the payload checksum.

    ``kind`` restricts which record types are accepted.  Headers
    written before the ``kind`` field existed are treated as
    checkpoints.
    """
    header, payload = _parse(Path(path))
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["sha256"]:
        raise CheckpointError(
            f"Record payload checksum mismatch in {path} "
            f"(expected {header['sha256'][:12]}..., got {digest[:12]}...)."
        )
    if kind is not None and header.get("kind", "checkpoint") != kind:
        raise CheckpointError(
            f"{path} holds a {header.get('kind', 'checkpoint')!r} record; "
            f"expected {kind!r}."
        )
    return header, payload


def save_checkpoint(orchestrator, path) -> dict:
    """Write ``orchestrator`` (mid-run or not) to ``path``; returns the
    header that was stored."""
    with obs.trace("checkpoint.save"):
        fields = {
            "tick": int(getattr(orchestrator, "_t", -1)),
            "application": orchestrator.application,
            "policy": getattr(
                orchestrator.policy, "name", type(orchestrator.policy).__name__
            ),
        }
        model = getattr(orchestrator.policy, "model", None)
        if model is not None:
            fields["model_fingerprint"] = model_fingerprint(model)
        header = write_record(path, orchestrator, fields, kind="checkpoint")
    obs.inc("checkpoint.saves")
    return header


def read_header(path) -> dict:
    """Parse and validate a checkpoint's header without unpickling."""
    header, _ = _parse(Path(path))
    return header


def load_checkpoint(path):
    """Restore the orchestrator saved at ``path``.

    Only load checkpoints you wrote yourself: the payload is a pickle.
    """
    _, payload = read_record(path, kind="checkpoint")
    with obs.trace("checkpoint.load"):
        orchestrator = pickle.loads(payload)
    obs.inc("checkpoint.loads")
    return orchestrator


def _parse(path: Path) -> tuple[dict, bytes]:
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"Cannot read checkpoint {path}: {error}") from error
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint (bad magic).")
    body = blob[len(_MAGIC):]
    newline = body.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path} is truncated (no header).")
    try:
        header = json.loads(body[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"{path} has a corrupt header.") from error
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint format {header.get('format')!r}; "
            f"this build reads format {FORMAT_VERSION}."
        )
    payload = body[newline + 1:]
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(
            f"{path} is truncated: header promises "
            f"{header.get('payload_bytes')} payload bytes, found "
            f"{len(payload)}."
        )
    return header, payload
