"""Token estimation and canonical serialization.

The estimator is deliberately model-free: ceil(characters / 4) over the
canonical serialization. Canonical form sorts object keys and strips
insignificant whitespace so that token counts and hashes are reproducible
across runs and platforms.
"""

import hashlib
import json
from typing import Any


def canonical_json(doc: Any) -> str:
    """Serialize a structured document deterministically."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def estimate_tokens(text: str) -> int:
    """Estimate the token footprint of a string. Deterministic and monotone."""
    return (len(text) + 3) // 4


def prompt_hash(prompt: str) -> int:
    """Stable 64-bit hash of a prompt, used by the stub gateway for selection."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
