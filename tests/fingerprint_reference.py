"""The reference for :func:`repro.reliability.checkpoint.model_fingerprint`.

``model_fingerprint`` hashes what the C pickler writes in ``fast``
mode (no memo).  This module keeps the slow pure-Python pickler with
its memo switched off, the implementation it replaced; both must emit
the same bytes for every model shape (``tests/test_model_files.py``).
"""

import hashlib
import io
import pickle


class CanonicalPickler(pickle._Pickler):
    """A pickler whose byte stream depends only on *values*, not on
    object identity.

    Raw ``pickle.dumps`` memoizes by ``id()``: when two attributes
    alias one interned string (or one cached numpy dtype) the second
    occurrence is a short memo reference, but after an unpickle those
    occurrences are distinct objects and get re-emitted in full.
    Disabling the memo serializes every occurrence by value, so
    value-equal object graphs pickle identically regardless of process
    history.  Only safe for acyclic graphs -- a cycle would recurse
    forever.
    """

    def memoize(self, obj):  # noqa: ARG002 - deliberate no-op
        pass


def reference_bytes(model) -> bytes:
    buffer = io.BytesIO()
    CanonicalPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(model)
    return buffer.getvalue()


def reference_fingerprint(model) -> str:
    return hashlib.sha256(reference_bytes(model)).hexdigest()
