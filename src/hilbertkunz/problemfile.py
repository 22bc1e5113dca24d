"""Line-oriented problem files.

Grammar: one `key = value` per line, `#` starts a comment, blank lines
ignored. Keys:

    p            prime characteristic                      (required)
    vars         variable names, whitespace separated       (required)
    ring         defining ideal generators, comma separated (optional)
    ideal        ideal generators, comma separated          (required)
    module       submodule generators; rows split on ';',
                 entries on ','                             (optional)
    module_rank  rank of the free cover the module rows
                 live in; defaults to 1                     (optional)
    rank         declared generic rank of the module        (optional)
    dim          dimension override                         (optional)
    n            sample range `a..b`                        (required)
    sequence     submodule generators for additive-error
                 runs, same row syntax as module            (optional)

Unknown or duplicate keys are rejected. All positions in errors are
1-based (line, column).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .poly import MAX_PRIME, is_prime, parse_polynomial, ring

_KEYS = (
    "p",
    "vars",
    "ring",
    "ideal",
    "module",
    "module_rank",
    "rank",
    "dim",
    "n",
    "sequence",
)
_REQUIRED = ("p", "vars", "ideal", "n")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


@dataclass(frozen=True)
class ProblemFile:
    p: int
    variables: tuple[str, ...]
    ring_relations: tuple[str, ...]
    ideal: tuple[str, ...]
    module: tuple[tuple[str, ...], ...] | None
    module_rank: int | None
    rank: int | None
    dim: int | None
    n_min: int
    n_max: int
    sequence: tuple[tuple[str, ...], ...] | None


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_positions(raw: str, sep: str):
    """Split on sep, yielding (piece, offset_of_first_nonspace)."""
    out = []
    start = 0
    while True:
        cut = raw.find(sep, start)
        piece = raw[start:] if cut < 0 else raw[start:cut]
        lead = len(piece) - len(piece.lstrip())
        out.append((piece.strip(), start + lead))
        if cut < 0:
            return out
        start = cut + 1


def _int_value(raw: str, line: int, col: int, what: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {raw!r}", line, col) from None


def parse_problem(text: str) -> ProblemFile:
    entries: dict[str, tuple[str, int, int]] = {}
    for lineno, full in enumerate(text.splitlines(), start=1):
        line = _strip_comment(full)
        if not line.strip():
            continue
        eq = line.find("=")
        if eq < 0:
            raise ParseError(
                "expected `key = value`", lineno, len(line) - len(line.lstrip()) + 1
            )
        key = line[:eq].strip()
        key_col = line.find(key) + 1 if key else 1
        if key not in _KEYS:
            raise ParseError(f"unknown key {key or '(empty)'!r}", lineno, key_col)
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", lineno, key_col)
        rest = line[eq + 1 :]
        lead = len(rest) - len(rest.lstrip())
        value = rest.strip()
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno, eq + 2 + lead)
        entries[key] = (value, lineno, eq + 2 + lead)

    for key in _REQUIRED:
        if key not in entries:
            raise ParseError(f"missing required key {key!r}", 1, 1)

    raw, line, col = entries["p"]
    p = _int_value(raw, line, col, "p")
    if not is_prime(p):
        raise ParseError(f"{p} is not prime", line, col)
    if p >= MAX_PRIME:
        raise ParseError(f"p must be below {MAX_PRIME}", line, col)

    raw, line, col = entries["vars"]
    variables = tuple(raw.split())
    seen = set()
    for name in variables:
        if not _NAME_RE.match(name):
            raise ParseError(f"bad variable name {name!r}", line, col)
        if name in seen:
            raise ParseError(f"repeated variable {name!r}", line, col)
        seen.add(name)

    # validate every polynomial against a scratch ring; the runner rebuilds
    # with the order chosen on the command line
    S = ring(",".join(variables), p)

    def polys(key: str) -> tuple[str, ...]:
        raw, line, col = entries[key]
        out = []
        for piece, off in _split_positions(raw, ","):
            if not piece:
                raise ParseError("empty polynomial entry", line, col + off)
            parse_polynomial(piece, S, line, col + off)
            out.append(piece)
        return tuple(out)

    def rows(key: str) -> tuple[tuple[str, ...], ...]:
        raw, line, col = entries[key]
        out = []
        for row_raw, row_off in _split_positions(raw, ";"):
            if not row_raw:
                raise ParseError("empty row", line, col + row_off)
            row = []
            for piece, off in _split_positions(row_raw, ","):
                if not piece:
                    raise ParseError("empty polynomial entry", line, col + row_off + off)
                parse_polynomial(piece, S, line, col + row_off + off)
                row.append(piece)
            out.append(tuple(row))
        return tuple(out)

    ring_relations = polys("ring") if "ring" in entries else ()
    ideal = polys("ideal")
    module = rows("module") if "module" in entries else None
    sequence = rows("sequence") if "sequence" in entries else None

    # the optional integer keys, each with its least allowed value
    counts: dict[str, int | None] = {}
    for key, least, word in (
        ("module_rank", 1, "positive"),
        ("rank", 0, "nonnegative"),
        ("dim", 0, "nonnegative"),
    ):
        counts[key] = None
        if key in entries:
            raw, line, col = entries[key]
            counts[key] = _int_value(raw, line, col, key)
            if counts[key] < least:
                raise ParseError(f"{key} must be {word}", line, col)

    raw, line, col = entries["n"]
    m = re.match(r"(\d+)\s*\.\.\s*(\d+)\Z", raw)
    if not m:
        raise ParseError("n must have the form `a..b`", line, col)
    n_min, n_max = int(m.group(1)), int(m.group(2))
    if n_min > n_max:
        raise ParseError("n range is empty", line, col)

    expected_width = counts["module_rank"] or 1
    if module is not None:
        for row in module:
            if len(row) != expected_width:
                raise ParseError(
                    f"module row has {len(row)} entries, expected {expected_width}",
                    entries["module"][1],
                    entries["module"][2],
                )
    if sequence is not None:
        width = len(module) if module is not None else 1
        for row in sequence:
            if len(row) != width:
                raise ParseError(
                    f"sequence row has {len(row)} entries, expected {width}",
                    entries["sequence"][1],
                    entries["sequence"][2],
                )

    return ProblemFile(
        p=p,
        variables=variables,
        ring_relations=ring_relations,
        ideal=ideal,
        module=module,
        **counts,
        n_min=n_min,
        n_max=n_max,
        sequence=sequence,
    )


def serialize_problem(pf: ProblemFile) -> str:
    """Canonical text form; parse(serialize(parse(text))) is a fixpoint."""
    lines = [f"p = {pf.p}", "vars = " + " ".join(pf.variables)]
    if pf.ring_relations:
        lines.append("ring = " + ", ".join(pf.ring_relations))
    lines.append("ideal = " + ", ".join(pf.ideal))
    if pf.module is not None:
        lines.append("module = " + "; ".join(", ".join(r) for r in pf.module))
    if pf.module_rank is not None:
        lines.append(f"module_rank = {pf.module_rank}")
    if pf.rank is not None:
        lines.append(f"rank = {pf.rank}")
    if pf.dim is not None:
        lines.append(f"dim = {pf.dim}")
    lines.append(f"n = {pf.n_min}..{pf.n_max}")
    if pf.sequence is not None:
        lines.append("sequence = " + "; ".join(", ".join(r) for r in pf.sequence))
    return "\n".join(lines) + "\n"
