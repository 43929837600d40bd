"""Output checks for benchmark jobs, independent of the program's code.

``check(job, code, out)`` returns None when the output is right and a short
reason when it is not.  It replays every printed witness to its value,
demands ``true`` from constructed members and lemma checks, ``(agrees)``
from the toric oracle, and the generator's own answer where it has one.
"""

import re
from fractions import Fraction

C0 = re.compile(r"c0\(i=([^,]+),j=([^)]+)\)$")
C1 = re.compile(r"c1\(p=(\d+),q=(\d+),r=(\d+),i=([^,]+),j=([^)]+)\)$")
P1 = re.compile(r"p1\(N=\[([\d,]+)\],d=\[([^\]]+)\]\)$")
R_FAMILY = re.compile(r"\((\d+),(\d+),r\), r -> infinity, i-slope=(\S+), j-slope=(\S+)$")
ZERO_FAMILIES = ("(1-i)/j, j -> infinity", "fixed (p,q,r), j-combination -> infinity")


def _coefficient(text: str) -> tuple[Fraction, Fraction]:
    """i + j*t from the oracle's coefficient text: `i`, `t`, `jt` or `i+jt`."""
    if not text.endswith("t"):
        return Fraction(text), Fraction(0)
    head, plus, slope = text[:-1].rpartition("+")
    i = Fraction(head) if plus else Fraction(0)
    return i, Fraction(slope) if slope else Fraction(1)


def replay(witness: str, degree: int = 1) -> Fraction:
    """The value a witness string stands for, computed from its fields."""
    m = C0.match(witness)
    if m:
        return (1 - Fraction(m[1])) / Fraction(m[2])
    m = C1.match(witness)
    if m:
        p, q, r = int(m[1]), int(m[2]), int(m[3])
        return (q * r + p * r + p * q - p * q * r - Fraction(m[4])) / Fraction(m[5])
    m = P1.match(witness)
    if m:
        ns = [int(n) for n in m[1].split(",")]
        parts = [_coefficient(d) for d in m[2].split(",")]
        if len(ns) != len(parts):
            raise ValueError(f"term count mismatch in {witness!r}")
        const = sum(Fraction(n - 1) / n + i / n for n, (i, _) in zip(ns, parts))
        slope = sum(j / n for n, (_, j) in zip(ns, parts))
        return (degree - const) / slope
    raise ValueError(f"unknown witness {witness!r}")


def replay_family(family: str) -> Fraction:
    """The limit an accumulation family converges to."""
    if family in ZERO_FAMILIES:
        return Fraction(0)
    m = R_FAMILY.match(family)
    if not m:
        raise ValueError(f"unknown family {family!r}")
    p, q = int(m[1]), int(m[2])
    return (p + q - p * q - Fraction(m[3])) / Fraction(m[4])


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _ascending(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _value_lines(lines, replay_one, low=None):
    """Check `value<TAB>provenance` lines: each replays, ascending order."""
    values = []
    for line in lines:
        text, tab, prov = line.partition("\t")
        value = Fraction(text)
        if not tab:
            return f"no provenance on line {line!r}"
        if replay_one(prov) != value:
            return f"provenance does not replay: {line!r}"
        if low is not None and value < low:
            return f"value below the cutoff: {line!r}"
        values.append(value)
    if not _ascending(values):
        return "values not strictly ascending"
    return None


def _check_set(lines):
    values = [Fraction(x) for x in lines]
    if not _ascending(values) or (values and not 0 <= values[0] <= values[-1] <= 1):
        return "set output not ascending within [0,1]"
    return None


def _check_mem(job, code, lines):
    target, value = job.argv[1], Fraction(job.argv[2])
    if len(lines) != 1:
        return "membership prints one line"
    word, _, rest = lines[0].partition(" ")
    if word == "true":
        if code != 0:
            return "true must exit 0"
        if target not in ("lct0", "lct1"):
            return None if not rest else f"unexpected answer {lines[0]!r}"
        if replay(rest) != value:
            return f"membership witness does not replay: {lines[0]!r}"
        return None
    if job.must_be_true:
        return f"constructed member answered {lines[0]!r}"
    if code != 1:
        return "a negative answer must exit 1"
    if target == "lct1":
        bound = _option(job.argv, "--triple-bound")
        expected = f"not-found-within-bound (triples searched up to {bound})"
        return None if lines[0] == expected else f"unexpected answer {lines[0]!r}"
    return None if lines[0] == "false" else f"unexpected answer {lines[0]!r}"


def check(job, code, out: str):
    """None if `out` and exit `code` are right for `job`, else a reason."""
    lines = out.splitlines()
    command = job.argv[0]
    try:
        if command == "mem":
            return _check_mem(job, code, lines)
        if code != 0:
            return f"exit code {code}"
        if command in ("plus", "dset", "ddset"):
            return _check_set(lines)
        if command in ("lct0", "lct1"):
            return _value_lines(lines, replay)
        if command == "p1-oracle":
            degree = int(_option(job.argv, "--degree"))
            return _value_lines(lines, lambda w: replay(w, degree))
        if command == "acc-above":
            if not lines or not lines[0].startswith("# "):
                return "acc-above must start with its detail line"
            return _value_lines(lines[1:], replay, low=Fraction(_option(job.argv, "--t")))
        if command == "accum":
            body = [x for x in lines if not x.startswith("# hypothesis violation: ")]
            return _value_lines(body, replay_family)
        if command == "lemma-check":
            return None if lines == ["true"] else f"lemma check printed {lines[:2]!r}"
        if command == "toric-lct":
            if len(lines) != 2 or not lines[1].endswith(" (agrees)"):
                return f"oracle disagrees: {lines!r}"
            if lines[0] != job.answer or lines[1] != f"oracle {job.answer} (agrees)":
                return f"threshold {lines[0]!r}, expected {job.answer!r}"
            return None
        if command == "dualcx":
            if out != job.answer + "\n":
                return f"dual complex {out!r}, expected {job.answer!r}"
            return None
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        return f"unparsable output: {exc}"
    return f"no check for command {command!r}"
