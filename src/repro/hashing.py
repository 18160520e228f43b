"""The one hash function of the library: BLAKE2b.

Transcripts, fingerprints, Merkle leaves, cache frame digests and
response digests all use it, and all import it from here.  It is taken
from CPython's built-in ``_blake2`` module, which is where ``hashlib``
takes it from too (``hashlib.blake2b is _blake2.blake2b``), so every
digest is the same; importing ``hashlib`` itself would also load
``_hashlib`` and map OpenSSL's ``libcrypto`` into every process that
proves or verifies, which uses nothing else of it.
"""

from _blake2 import blake2b

__all__ = ["blake2b"]
