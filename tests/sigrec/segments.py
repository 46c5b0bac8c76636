"""Test helpers that damage a cache tier's segment log on disk.

A segment log holds one record per line, ``key \\t checksum \\t payload``;
the last record for a key is the live one.
"""


def record_span(path, key):
    """(start, end) byte offsets of the live record of ``key``."""
    prefix = key.encode("ascii") + b"\t"
    offset, span = 0, None
    with open(path, "rb") as handle:
        for line in handle:
            if line.startswith(prefix):
                span = (offset, offset + len(line))
            offset += len(line)
    assert span is not None, f"no record for {key} in {path}"
    return span


def corrupt_record(path, key, old=None, new=None):
    """Damage the payload of ``key``'s live record in place.

    With ``old``/``new`` (equal lengths) one occurrence of ``old`` in the
    payload becomes ``new``; otherwise the whole payload becomes garbage
    of the same length.  The checksum is left as it was.
    """
    start, end = record_span(path, key)
    with open(path, "r+b") as handle:
        handle.seek(start)
        line = handle.read(end - start)
        head, payload = line.rsplit(b"\t", 1)
        if old is None:
            payload = b"#" * (len(payload) - 1) + b"\n"
        else:
            assert len(old) == len(new) and old in payload
            payload = payload.replace(old, new, 1)
        handle.seek(start + len(head) + 1)
        handle.write(payload)
