"""Crash-safe checkpointing of a running closed-loop orchestrator.

A checkpoint is a single self-validating record file::

    REPRO-CKPT\\n
    {json header: format, kind, tick, application, policy, payload sha256}\\n
    <pickle payload>

The same container format (magic + JSON header + sha256-checksummed
pickle, atomic tmp+replace writes) holds models too, through
:func:`write_record` / :func:`read_record`; the header's ``kind`` field
tells record types apart (``"checkpoint"`` for orchestrators,
``"model"`` for models).  A model record's header also carries the
model's :func:`model_fingerprint`: ``MonitorlessModel.save`` writes one
and the model registry (:mod:`repro.lifecycle.registry`) writes one per
version, and :func:`read_model` is the one reader of both.  It checks
the checksum, the kind and, after unpickling, the fingerprint, so a
truncated or bit-flipped model file raises :class:`CheckpointError`
instead of unpickling into garbage or into a different model.  A bare
pickle (what ``MonitorlessModel.save`` wrote before model files were
records) has no magic and is refused the same way.

For checkpoints the payload is one :mod:`pickle` of the whole
:class:`~repro.orchestrator.loop.Orchestrator` object graph.  One
pickle (rather than per-component state dicts) is load-bearing: the
simulation's containers are *shared* between the cluster state and the
policy's fleet telemetry, and pickling the graph in one pass preserves
that aliasing exactly.  Everything that makes the loop deterministic
rides along -- the fleet's rolling feature rings and cumulative sums,
``np.random.Generator`` bit-generator states, counter accumulators,
fallback health states and the orchestrator's own tick accounting --
so a resumed run replays the remaining ticks bitwise identically to an
uninterrupted one.

The header also records the sha256 fingerprint of the serving model
(``model_fingerprint``) when the policy exposes one, so a resume can
refuse to continue a run with a model other than the one it was
checkpointed with (:func:`check_model_swap`, the guard of
``Orchestrator.resume_from`` and of a fleet shard's resume).

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
    "read_model",
    "save_checkpoint",
    "load_checkpoint",
    "check_model_swap",
]

_MAGIC = b"REPRO-CKPT\n"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or incompatible."""


def model_fingerprint(model) -> str:
    """sha256 over the model's canonical (identity-free) pickled bytes.

    Raw ``pickle.dumps`` memoizes by ``id()``: when two attributes
    alias one interned string (or one cached numpy dtype) the second
    occurrence is a short memo reference, but after an unpickle those
    occurrences are distinct objects and get re-emitted in full, so
    the bytes of a value-equal model would depend on its history.  The
    C pickler in ``fast`` mode keeps no memo and serializes every
    occurrence by value, so two fingerprints agree iff the models are
    value-equal -- including a model that went through a
    checkpoint/resume or a save/load cycle.  Only safe for acyclic
    graphs (``fast`` mode refuses a cycle), which holds for model
    objects: plain attribute trees of arrays, tuples and scalars.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(model)
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


def read_model(path, fingerprint: str | None = None):
    """Unpickle the ``kind="model"`` record at ``path``.

    Verifies the payload checksum and the kind, then that the
    unpickled model has the fingerprint its header records (and
    ``fingerprint``, when given); anything else raises
    :class:`CheckpointError` naming ``path``.  Only load files you
    wrote yourself: the payload is a pickle.
    """
    header, payload = read_record(path, kind="model")
    stored = header.get("fingerprint")
    if type(stored) is not str or fingerprint not in (None, stored):
        raise CheckpointError(
            f"{path} records model fingerprint {stored!r}; expected "
            f"{fingerprint or 'a sha256 hex digest'}."
        )
    model = pickle.loads(payload)
    if model_fingerprint(model) != stored:
        raise CheckpointError(
            f"{path} unpickled to a model whose fingerprint differs from "
            "the one its header records."
        )
    return model


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


def check_model_swap(path, model) -> None:
    """Refuse to resume ``path`` with another model than its own.

    Compares ``model``'s fingerprint with the header's
    ``model_fingerprint`` (a checkpoint without one accepts any model)
    and raises :class:`CheckpointError` naming ``path`` on a mismatch.
    """
    stored = read_header(path).get("model_fingerprint")
    offered = model_fingerprint(model)
    if stored is not None and offered != stored:
        raise CheckpointError(
            f"{path} was checkpointed with model {stored[:12]}... but "
            f"resume was offered model {offered[:12]}...; refusing to "
            "swap the serving model mid-run."
        )


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
    if not isinstance(header, dict):
        raise CheckpointError(f"{path} has a corrupt header (not an object).")
    # JSON booleans decode to bool, an int subclass: compare types exactly.
    version = header.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint format {version!r}; "
            f"this build reads format {FORMAT_VERSION}."
        )
    size, digest = header.get("payload_bytes"), header.get("sha256")
    if type(size) is not int or type(digest) is not str:
        raise CheckpointError(
            f"{path} has a corrupt header (payload_bytes {size!r}, "
            f"sha256 {digest!r})."
        )
    payload = body[newline + 1:]
    if len(payload) != size:
        raise CheckpointError(
            f"{path} is truncated: header promises {size} payload bytes, "
            f"found {len(payload)}."
        )
    return header, payload
