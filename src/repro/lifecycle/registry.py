"""Versioned model registry over the checksummed REPRO-CKPT format.

Each registered model gets a monotonically increasing version and one
record file ``v<N>.model`` in the registry directory -- the same
self-validating container as orchestrator checkpoints (magic + JSON
header + sha256-checksummed pickle, atomic tmp+replace writes; see
:mod:`repro.reliability.checkpoint`), with ``kind: "model"`` and the
lineage metadata in the header: the model fingerprint, the fingerprint
of the corpus it was trained on, the parent version it was retrained
from, and the reason it was registered.  ``registry.json`` indexes the
records plus the full promotion-event log.

Lifecycle stages form the promotion state machine::

    candidate --> shadow --> champion --> retired
        \\___________________↗      (shadow/candidate may retire early)

All registry state is keyed by content and tick -- never by wall
clock -- and both :meth:`ModelRegistry.register` and
:meth:`ModelRegistry.transition` are idempotent replays: registering a
bitwise-identical model with the same lineage returns the existing
record, and re-recording an identical transition is a no-op.  A
kill-and-resume therefore replays the registry into exactly the state
an uninterrupted run produces, file bytes included.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.reliability.checkpoint import (
    model_fingerprint,
    read_model,
    write_record,
)

__all__ = ["STAGES", "RegistryError", "ModelRegistry", "corpus_fingerprint"]

STAGES = ("candidate", "shadow", "champion", "retired")

_TRANSITIONS = {
    ("candidate", "shadow"),
    ("candidate", "retired"),
    ("shadow", "champion"),
    ("shadow", "retired"),
    ("champion", "retired"),
}


#: The keys of every index record (what :meth:`ModelRegistry.register`
#: writes).
_RECORD_KEYS = frozenset({
    "version", "stage", "fingerprint", "corpus_fingerprint",
    "parent_version", "reason", "tick", "file",
})


class RegistryError(RuntimeError):
    """An invalid registry operation (unknown version, bad transition)
    or a corrupt registry index."""


def corpus_fingerprint(X, y) -> str:
    """sha256 over a training corpus's sample and label bytes."""
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(X).tobytes())
    digest.update(np.ascontiguousarray(y).tobytes())
    return digest.hexdigest()


class ModelRegistry:
    """Checksummed, versioned model store with a promotion-event log."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: list[dict] = []
        self._events: list[dict] = []
        index = self.root / "registry.json"
        if index.exists():
            self._records, self._events = _read_index(index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def events(self) -> list[dict]:
        """The promotion-event log (copies)."""
        return [dict(event) for event in self._events]

    def lineage(self) -> list[dict]:
        """Every record, oldest first (copies)."""
        return [dict(record) for record in self._records]

    def record(self, version: int) -> dict:
        if not 1 <= version <= len(self._records):
            raise RegistryError(
                f"No version {version} in registry {self.root} "
                f"({len(self._records)} registered)."
            )
        return dict(self._records[version - 1])

    def _latest_in_stage(self, stage: str) -> dict | None:
        for record in reversed(self._records):
            if record["stage"] == stage:
                return dict(record)
        return None

    def champion(self) -> dict | None:
        """The serving model's record, or ``None``."""
        return self._latest_in_stage("champion")

    def shadow(self) -> dict | None:
        """The shadow-evaluating challenger's record, or ``None``."""
        return self._latest_in_stage("shadow")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(
        self,
        model,
        *,
        reason: str,
        stage: str = "candidate",
        tick: int | None = None,
        parent_version: int | None = None,
        corpus_fingerprint: str | None = None,
    ) -> dict:
        """Store a model; returns its (possibly pre-existing) record.

        Identity is content-based: a model whose fingerprint, parent
        and reason match an existing record *is* that record (the
        idempotence a checkpoint-resume replay relies on).
        """
        if stage not in STAGES:
            raise RegistryError(f"Unknown stage {stage!r}; one of {STAGES}.")
        fingerprint = model_fingerprint(model)
        for record in self._records:
            if (
                record["fingerprint"] == fingerprint
                and record["parent_version"] == parent_version
                and record["reason"] == reason
            ):
                return dict(record)
        version = len(self._records) + 1
        filename = f"v{version}.model"
        record = {
            "version": version,
            "stage": stage,
            "fingerprint": fingerprint,
            "corpus_fingerprint": corpus_fingerprint,
            "parent_version": parent_version,
            "reason": reason,
            "tick": tick,
            "file": filename,
        }
        write_record(
            self.root / filename,
            model,
            {key: record[key] for key in record if key != "file"},
            kind="model",
        )
        self._records.append(record)
        self._save_index()
        obs.inc("lifecycle.models_registered")
        return dict(record)

    def transition(
        self, version: int, stage: str, *, tick: int | None = None,
        reason: str = "",
    ) -> dict:
        """Move a version along the state machine; logs the event.

        Promoting to ``champion`` automatically retires the previous
        champion (same tick, reason ``superseded by vN``).  Re-applying
        a transition the log already holds is a no-op, so resume
        replays converge instead of double-logging.
        """
        if stage not in STAGES:
            raise RegistryError(f"Unknown stage {stage!r}; one of {STAGES}.")
        record = self._record_ref(version)
        if record["stage"] == stage and any(
            event["version"] == version and event["to"] == stage
            for event in self._events
        ):
            return dict(record)
        if (record["stage"], stage) not in _TRANSITIONS:
            raise RegistryError(
                f"Illegal transition {record['stage']} -> {stage} for "
                f"v{version}."
            )
        if stage == "champion":
            current = self.champion()
            if current is not None and current["version"] != version:
                self.transition(
                    current["version"],
                    "retired",
                    tick=tick,
                    reason=f"superseded by v{version}",
                )
        event = {
            "tick": tick,
            "version": version,
            "from": record["stage"],
            "to": stage,
            "reason": reason,
        }
        record["stage"] = stage
        self._events.append(event)
        self._save_index()
        if stage == "champion":
            obs.inc("lifecycle.promotions")
        elif stage == "retired":
            obs.inc("lifecycle.retirements")
        return dict(record)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def load(self, version: int):
        """Unpickle a stored model, verifying checksum and fingerprint
        (:func:`repro.reliability.checkpoint.read_model`)."""
        record = self.record(version)
        return read_model(self.root / record["file"], record["fingerprint"])

    def _record_ref(self, version: int) -> dict:
        if not 1 <= version <= len(self._records):
            raise RegistryError(
                f"No version {version} in registry {self.root} "
                f"({len(self._records)} registered)."
            )
        return self._records[version - 1]

    def _save_index(self) -> None:
        index = self.root / "registry.json"
        temp = index.with_name(index.name + ".tmp")
        temp.write_text(
            json.dumps(
                {"records": self._records, "events": self._events},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        os.replace(temp, index)


def _read_index(index: Path) -> tuple[list[dict], list[dict]]:
    """The records and events of a ``registry.json``.

    Anything but an object whose ``records`` and ``events`` are lists
    of objects, each record carrying every key ``register`` writes, a
    known stage and its position as version, raises
    :class:`RegistryError` naming the file.
    """
    try:
        state = json.loads(index.read_bytes())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RegistryError(f"Corrupt registry index {index}: {error}") from error
    if not isinstance(state, dict):
        raise RegistryError(f"Corrupt registry index {index}: not an object.")
    records, events = state.get("records"), state.get("events")
    for name, entries in (("records", records), ("events", events)):
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) for entry in entries
        ):
            raise RegistryError(
                f"Corrupt registry index {index}: {name!r} is not a list "
                "of objects."
            )
    for version, record in enumerate(records, start=1):
        if (
            not _RECORD_KEYS <= record.keys()
            or record["stage"] not in STAGES
            or record["version"] != version
        ):
            raise RegistryError(
                f"Corrupt registry index {index}: bad record {record!r}."
            )
    return records, events
