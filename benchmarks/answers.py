"""Answers extracted from CLI output, and their comparison with goldens.

An answer keeps what a command decides, not how it words it, so rewording
the output does not count as a failure:

- validate: exit code and the two checks
- network: exit code and the census numbers
- hom: exit code, span rank, oracle dimension and verdict
- indec: exit code, theorem verdict and oracle verdict
- decompose: exit code, sorted summand dimensions and the witness check
- ggms: exit code, GGM count and a digest of the vertex lines, mapped back to
  the canonical vertex ids and signed so the least pair carries +

A command whose exception escapes `main` has the answer {"error": type name}.
"""

from __future__ import annotations

import hashlib
import re

_INT = r"(\d+)"
_WORD_VERDICT = re.compile(r"\b(INDECOMPOSABLE|DECOMPOSABLE)\b")


def _number(key: str, text: str):
    m = re.search(rf"^\s*{key}\b[^\n\d]*{_INT}", text, re.MULTILINE | re.IGNORECASE)
    return int(m.group(1)) if m else None


def _line(prefix: str, text: str) -> str:
    for line in text.splitlines():
        if line.lower().startswith(prefix):
            return line
    return ""


def _verdict(text: str):
    m = re.search(r"\b(AGREE|DISAGREE)\b", text)
    return m.group(1) if m else None


def _ggm_digest(text: str, inv1: dict, inv2: dict) -> str:
    lines = []
    for line in text.splitlines():
        m = re.match(r"GGM \d+:\s*(.*)$", line)
        if not m:
            continue
        triples = [
            (inv1[int(n)], inv2[int(k)], 1 if s == "+" else -1)
            for n, k, s in re.findall(r"\((\d+),(\d+),([+-])\)", m.group(1))
        ]
        least = min(triples)
        sign = least[2]
        lines.append(" ".join(f"({n},{k},{'+' if s * sign > 0 else '-'})" for n, k, s in sorted(triples)))
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def extract(kind: str, code: int, out: str, inverses: list) -> dict:
    """The answer of one finished command."""
    ans = {"exit": code}
    if kind == "validate":
        ans["bound_ok"] = bool(re.search(r"locally-bound check:\s*ok", out))
        ans["tree_ok"] = bool(re.search(r"tree validation:\s*ok", out))
    elif kind == "network":
        for key in ("vertices", "arrows", "edges", "triangles"):
            ans[key] = _number(key, out)
        ans["roots"] = _line("roots", out).count("(")
        ans["traversals"] = _number(r"maximal \S+-free traversals", out)
    elif kind == "hom":
        ans["rank"] = _number(r"(?:GGM )?span rank", out)
        m = re.search(r"oracle dim\D*" + _INT, out)
        ans["dim"] = int(m.group(1)) if m else None
        ans["verdict"] = _verdict(out)
    elif kind == "indec":
        theorem = _WORD_VERDICT.search(_line("theorem", out))
        ans["theorem"] = theorem.group(1) if theorem else None
        oracle = _line("oracle", out)
        if "unavailable" in oracle.lower():
            ans["oracle"] = "unavailable"
        else:
            m = _WORD_VERDICT.search(oracle)
            ans["oracle"] = m.group(1) if m else None
        ans["verdict"] = _verdict(_line("verdict", out))
    elif kind == "decompose":
        dims = [int(d) for d in re.findall(r"^SUMMAND \d+ \(dim (\d+)\)", out, re.MULTILINE)]
        if not dims and "INDECOMPOSABLE" in out:
            dims = [len(re.findall(r"^node ", out, re.MULTILINE))]
        ans["summands"] = sorted(dims)
        m = re.search(r"witness:\s*(\w+)", out)
        ans["witness"] = m.group(1) if m else None
    elif kind == "ggms":
        count = re.search(r"^(\d+) GGMs", out, re.MULTILINE)
        ans["count"] = int(count.group(1)) if count else None
        ans["digest"] = _ggm_digest(out, inverses[0], inverses[1])
    return ans


def failed(ans: dict) -> bool:
    """An exception escaping main, or exit code 1, 2 or 4."""
    return "error" in ans or ans["exit"] in (1, 2, 4)


def _self_verifies(kind: str, ans: dict, n_vertices: int) -> bool:
    """An answer that the program's own cross-check confirms."""
    if "error" in ans or ans["exit"] != 0:
        return False
    if kind in ("hom", "indec"):
        return ans.get("verdict") == "AGREE"
    if kind == "decompose":
        return ans.get("witness") == "OK" and sum(ans["summands"]) == n_vertices
    return False


def matches(kind: str, ans: dict, golden: dict, n_vertices: int) -> bool:
    """Whether the answer meets its golden.

    A golden that failed or had no oracle answer is also met by an answer
    that verifies itself, so fixing a known defect cannot count against a
    later change; the theorem's verdict must still agree with the golden.
    """
    if ans == golden:
        return True
    if "error" in golden:
        return _self_verifies(kind, ans, n_vertices)
    if kind == "indec" and golden.get("oracle") == "unavailable":
        return ans.get("theorem") == golden["theorem"] and _self_verifies(kind, ans, n_vertices)
    return False
