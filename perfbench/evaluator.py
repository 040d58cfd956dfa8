"""Stand-in WER evaluator for sweeps: stdlib only, deterministic.

Usage: python3 evaluator.py CHECKPOINT

Reads the whole checkpoint, as a real evaluator loading a model would, and
prints one JSON line: ``wer`` derived from the mean of ``final_norm.weight``
(lowest where that mean is 1) and ``embed_sha256``, the digest of the
embedding's bytes, which lets the benchmark check the materialized weights.
"""

import hashlib
import json
import math
import struct
import sys

_FORMAT = {"F16": "e", "F32": "f", "F64": "d"}


def wer(norm_values) -> float:
    """12 plus 1000 times the distance of the norm's mean from 1."""
    return 12.0 + 1000.0 * abs(math.fsum(norm_values) / len(norm_values) - 1.0)


def score(data: bytes) -> dict:
    header_len = int.from_bytes(data[:8], "little")
    header = json.loads(data[8:8 + header_len])
    base = 8 + header_len

    def raw(name):
        begin, end = header[name]["data_offsets"]
        return data[base + begin:base + end]

    norm = header["final_norm.weight"]
    values = struct.unpack(f"<{norm['shape'][0]}{_FORMAT[norm['dtype']]}", raw("final_norm.weight"))
    return {
        "wer": wer(values),
        "embed_sha256": hashlib.sha256(raw("embed.weight")).hexdigest(),
    }


def main() -> int:
    with open(sys.argv[1], "rb") as handle:
        data = handle.read()
    print(json.dumps(score(data), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
