"""Problem spec files: bracket-headed sections of key = value lines.

Values are numbers or double-quoted expressions; '#' starts a comment.
Unknown sections or keys are errors, never silently ignored.

    [problem]
    a = 0.0
    b = 1.0
    tau = 0.0
    n = 1
    m = 1
    gamma = 0.0

    [lagrangian]
    L = "0.5*xd1^2 - 0.5*x1^2 - z"

    [history]
    mu1 = "1"

    [family]            # optional, for the charge command
    T = "t + s"
    X1 = "x1"
    Z = "z"
    xi = 0.0

    [candidate]         # optional, for the simulate command
    x1 = "1"
"""

import math
from typing import NamedTuple

from .errors import ValidationError

_PROBLEM_KEYS = ("a", "b", "tau", "n", "m", "gamma")


class FamilyContent(NamedTuple):
    T: str
    X: tuple
    Z: str
    xi: float


class ProblemFileContent(NamedTuple):
    a: float
    b: float
    tau: float
    gamma: float
    n: int
    m: int
    lagrangian_src: str
    history_src: tuple
    family: FamilyContent | None = None
    candidate: tuple | None = None


def _strip_comment(line):
    out = []
    in_quotes = False
    for ch in line:
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "#" and not in_quotes:
            break
        out.append(ch)
    return "".join(out)


def parse_sections(text):
    """Low-level pass: ordered dict of section -> list of (key, value) with
    quoted values unquoted.  Structural errors are collected and raised as a
    single ValidationError."""
    sections = {}
    current = None
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                problems.append(f"line {lineno}: malformed section header {raw.strip()!r}")
                continue
            current = line[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        if current is None:
            problems.append(f"line {lineno}: key outside any section")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith('"'):
            if not (len(value) >= 2 and value.endswith('"')):
                problems.append(f"line {lineno}: unterminated quoted value")
                continue
            value = value[1:-1]
        sections[current].append((key, value))
    if problems:
        raise ValidationError(problems)
    return sections


def _number(kv, section, key, problems, integer=False):
    if key not in kv:
        problems.append(f"missing key '{key}' in [{section}]")
        return None
    try:
        v = float(kv[key])
    except ValueError:
        problems.append(f"[{section}] {key}: not a number: {kv[key]!r}")
        return None
    if not math.isfinite(v):
        problems.append(f"[{section}] {key}: not a finite number: {kv[key]!r}")
        return None
    if integer:
        if v != int(v):
            problems.append(f"[{section}] {key}: expected an integer, got {kv[key]!r}")
            return None
        return int(v)
    return v


def parse_problem_file(text) -> ProblemFileContent:
    """Parse and structurally validate the full problem file."""
    sections = parse_sections(text)
    problems = []

    known = {"problem", "lagrangian", "history", "family", "candidate"}
    for name in sections:
        if name not in known:
            problems.append(f"unknown section [{name}]")
    for required in ("problem", "lagrangian", "history"):
        if required not in sections:
            problems.append(f"missing section [{required}]")
    if problems:
        raise ValidationError(problems)

    prob_kv = _as_dict(sections["problem"], "problem", _PROBLEM_KEYS, problems)
    a = _number(prob_kv, "problem", "a", problems)
    b = _number(prob_kv, "problem", "b", problems)
    tau = _number(prob_kv, "problem", "tau", problems)
    gamma = _number(prob_kv, "problem", "gamma", problems)
    n = _number(prob_kv, "problem", "n", problems, integer=True)
    m = _number(prob_kv, "problem", "m", problems, integer=True)

    lag_kv = _as_dict(sections["lagrangian"], "lagrangian", ("L",), problems)
    lagrangian = lag_kv.get("L")
    if lagrangian is None:
        problems.append("missing key 'L' in [lagrangian]")

    # m sizes the key tuples below, so it is checked first against the
    # entries it must name
    if isinstance(m, int) and m > len(sections["history"]):
        problems.append(f"[problem] m = {m} exceeds the {len(sections['history'])} "
                        f"entries of [history]")
        m = None

    history = ()
    if isinstance(m, int):
        wanted = tuple(f"mu{j}" for j in range(1, m + 1))
        hist_kv = _as_dict(sections["history"], "history", wanted, problems)
        missing = [w for w in wanted if w not in hist_kv]
        problems.extend(f"missing key '{w}' in [history]" for w in missing)
        if not missing:
            history = tuple(hist_kv[w] for w in wanted)

    family = None
    if "family" in sections and isinstance(m, int):
        family = parse_family(sections["family"], m, problems)

    candidate = None
    if "candidate" in sections and isinstance(m, int):
        wanted = tuple(f"x{j}" for j in range(1, m + 1))
        cand_kv = _as_dict(sections["candidate"], "candidate", wanted, problems)
        missing = [w for w in wanted if w not in cand_kv]
        problems.extend(f"missing key '{w}' in [candidate]" for w in missing)
        if not missing:
            candidate = tuple(cand_kv[w] for w in wanted)

    if problems:
        raise ValidationError(problems)
    return ProblemFileContent(a=a, b=b, tau=tau, gamma=gamma, n=n, m=m,
                              lagrangian_src=lagrangian, history_src=history,
                              family=family, candidate=candidate)


def parse_family(pairs, m, problems):
    """FamilyContent from the (key, value) pairs of a [family] section for m
    components, or None; structural errors are appended to ``problems``."""
    wanted = ("T", "Z", "xi") + tuple(f"X{j}" for j in range(1, m + 1))
    fam_kv = _as_dict(pairs, "family", wanted, problems)
    missing = [w for w in wanted if w not in fam_kv and w != "xi"]
    problems.extend(f"missing key '{w}' in [family]" for w in missing)
    if missing:
        return None
    xi = _number(fam_kv, "family", "xi", problems) if "xi" in fam_kv else 0.0
    return FamilyContent(T=fam_kv["T"],
                         X=tuple(fam_kv[f"X{j}"] for j in range(1, m + 1)),
                         Z=fam_kv["Z"], xi=xi if xi is not None else 0.0)


def _as_dict(pairs, section, allowed, problems):
    kv = {}
    for key, value in pairs:
        if key not in allowed:
            problems.append(f"unknown key '{key}' in [{section}]")
            continue
        if key in kv:
            problems.append(f"duplicate key '{key}' in [{section}]")
            continue
        kv[key] = value
    return kv
