"""Structured analysis reports: one JSON-stable document per input.

Every numeric claim in a report is recomputed from the parsed input, keys
appear in a fixed order, and arrays carry explicit sort keys, so identical
input yields byte-identical JSON.  A self-audit rejects any document whose
base table violates the monotone chain or, at order >= 6, the closed-form
ceiling.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__, digraph
from .digraph import (
    diameter,
    exponent,
    is_primitive,
    multiexponent_table,
    shortest_cycle_length,
    strongly_connected,
)
from .errors import CapacityError, ConsistencyError, StructuralError
from .sdgio import serialize_sdg
from .signed import (
    SignedDigraph,
    closed_walk_bounds,
    cycles,
    distinguished_pairs,
    is_powerful,
    upper_base_table,
    walk_pair_bounds,
)

SCHEMA_VERSION = 1

MULTIEXPONENT_CONVENTION = (
    "F_k with k=n is 0: length-0 walks already cover the full vertex set. "
    "Texts that pin F_n=1 will differ by one at k=n."
)


def input_digest(s: SignedDigraph) -> str:
    return "sha256:" + hashlib.sha256(serialize_sdg(s).encode()).hexdigest()


def _cycle_dict(c) -> dict:
    return {"vertices": list(c.vertices), "length": c.length, "sign": c.sign}


def _pair_dict(p) -> dict:
    return {
        "condition": p.condition.value,
        "cycle_1": _cycle_dict(p.c1),
        "cycle_2": _cycle_dict(p.c2),
        "lcm_length": p.lcm_length,
        "product_length": p.product_length,
    }


def build_report(s: SignedDigraph, ks: list[int] | None = None) -> dict:
    """Assemble the full report document for one signed digraph.

    ``ks`` restricts the per-k tables; default is every k = 1..n.  Sections
    whose preconditions fail are null with a reason, so the report always
    describes the input instead of raising.
    """
    n = s.n
    k_list = sorted(set(ks)) if ks else list(range(1, n + 1))
    for k in k_list:
        if not (1 <= k <= n):
            raise ValueError(f"k must be in 1..{n}")
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": input_digest(s),
    }
    d = s.underlying()
    try:
        cycle_records = cycles(s)
    except CapacityError:
        raise CapacityError(
            f"more than {digraph.CYCLE_OUTPUT_LIMIT} cycles: the report lists every "
            "simple cycle; upper-base and multiexponent still work on this input"
        ) from None
    doc["structure"] = {
        "n": n,
        "arc_count": len(s.arcs),
        "arcs": [{"tail": u, "head": v, "sign": sign} for u, v, sign in s.arcs],
        "cycle_count": len(cycle_records),
        "cycles": [_cycle_dict(c) for c in cycle_records],
    }
    connected = strongly_connected(d)
    primitive = is_primitive(d)
    doc["primitivity"] = {
        "strongly_connected": connected,
        "primitive": primitive,
        "diameter": diameter(d) if connected else None,
        "shortest_cycle_length": shortest_cycle_length(d) if cycle_records else None,
        "exponent": exponent(d) if primitive else None,
    }
    if primitive:
        powerful = is_powerful(s)
        pairs = distinguished_pairs(s)
        doc["powerfulness"] = {
            "powerful": powerful,
            "witness_pair": _pair_dict(pairs[0]) if pairs else None,
            "distinguished_pairs": [_pair_dict(p) for p in pairs],
        }
        f_table = multiexponent_table(d)
        doc["exponents"] = {
            "convention": MULTIEXPONENT_CONVENTION,
            "table": [{"k": k, "value": f_table[k - 1]} for k in k_list],
        }
    else:
        doc["powerfulness"] = {
            "powerful": None,
            "reason": "the powerfulness test requires a primitive digraph",
        }
        doc["exponents"] = None
        doc["bases"] = None
        doc["bounds"] = None
        return doc
    if powerful:
        doc["bases"] = {
            "reason": "bases are defined for non-powerful signed digraphs only"
        }
        doc["bounds"] = None
        return doc
    trace = s.power_trace()
    doc["bases"] = {
        "generalized_base": trace.base_l,
        "period": trace.period_p,
        "table": [
            {
                "k": r.k,
                "value": r.value,
                "witness": list(r.witness),
            }
            for r in upper_base_table(s)
            if r.k in k_list
        ],
    }
    doc["bounds"] = [
        {
            "k": wp.k,
            "walk_pair": {
                "value": wp.value,
                "multiexponent": wp.multiexponent,
                "diameter": wp.diameter,
                "pair_length": wp.pair_length,
                "source": wp.source,
                "target": wp.target,
            },
            "closed_walks": {
                "value": cw.value,
                "multiexponent": cw.multiexponent,
                "candidates": [
                    {
                        "closed_length": c.closed_length,
                        "vertices": list(c.vertices),
                        "value": c.value,
                    }
                    for c in cw.candidates
                ],
            },
        }
        for wp, cw in zip(walk_pair_bounds(s), closed_walk_bounds(s))
        if wp.k in k_list
    ]
    _audit(doc)
    return doc


def _audit(doc: dict) -> None:
    """Reject documents whose base table breaks a structural guarantee."""
    bases = doc.get("bases")
    if not bases or "table" not in bases:
        return
    n = doc["structure"]["n"]
    table = bases["table"]
    for prev, cur in zip(table, table[1:]):
        if cur["k"] == prev["k"] + 1 and cur["value"] > prev["value"]:
            raise ConsistencyError(
                f"monotone chain violated: L_{cur['k']} > L_{prev['k']}"
            )
    if n >= 6:
        for row in table:
            ceiling = (2 * n - row["k"]) * (n - 1) + 1
            if row["value"] > ceiling:
                raise ConsistencyError(
                    f"L_{row['k']} = {row['value']} exceeds the ceiling {ceiling}"
                )
    for row, bound_row in zip(table, doc.get("bounds") or []):
        wp = bound_row["walk_pair"]["value"]
        if wp < row["value"]:
            raise ConsistencyError(
                f"walk-pair bound {wp} fell below L_{row['k']} = {row['value']}"
            )
        cw = bound_row["closed_walks"]["value"]
        if cw is not None and cw < row["value"]:
            raise ConsistencyError(
                f"closed-walk bound {cw} fell below L_{row['k']} = {row['value']}"
            )


def report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def render_text(doc: dict) -> str:
    """Human-readable rendering with ASCII spellings l_S, L_k, F_k."""
    out = []
    st = doc["structure"]
    out.append(f"order n={st['n']}, arcs={st['arc_count']}, cycles={st['cycle_count']}")
    for c in st["cycles"]:
        verts = ",".join(str(v) for v in c["vertices"])
        out.append(f"  cycle [{verts}] length={c['length']} sign={c['sign']:+d}")
    pr = doc["primitivity"]
    out.append(f"strongly connected: {_yn(pr['strongly_connected'])}")
    out.append(f"primitive: {_yn(pr['primitive'])}")
    if pr["diameter"] is not None:
        out.append(f"diameter d={pr['diameter']}")
    if pr["shortest_cycle_length"] is not None:
        out.append(f"shortest cycle s={pr['shortest_cycle_length']}")
    if pr["exponent"] is not None:
        out.append(f"exponent exp={pr['exponent']}")
    pw = doc["powerfulness"]
    if pw.get("powerful") is None:
        out.append(f"powerful: undetermined ({pw['reason']})")
        return "\n".join(out) + "\n"
    out.append(f"powerful: {_yn(pw['powerful'])}")
    if pw["witness_pair"] is not None:
        p = pw["witness_pair"]
        out.append(
            f"  witness cycle pair: lengths ({p['cycle_1']['length']}, "
            f"{p['cycle_2']['length']}), condition {p['condition']}, "
            f"closed pair lengths lcm={p['lcm_length']} product={p['product_length']}"
        )
    if doc["exponents"] is not None:
        cells = " ".join(f"k={r['k']}:{r['value']}" for r in doc["exponents"]["table"])
        out.append(f"F_k table: {cells}   (convention: F_n = 0)")
    bases = doc.get("bases")
    if bases is None:
        return "\n".join(out) + "\n"
    if "table" not in bases:
        out.append(f"bases: undetermined ({bases['reason']})")
        return "\n".join(out) + "\n"
    out.append(f"generalized base l_S={bases['generalized_base']}, period={bases['period']}")
    cells = " ".join(
        f"k={r['k']}:{r['value']}(X={{{','.join(str(x) for x in r['witness'])}}})"
        for r in bases["table"]
    )
    out.append(f"L_k table: {cells}")
    for row in doc.get("bounds") or []:
        wp = row["walk_pair"]
        cw = row["closed_walks"]
        cw_text = "none" if cw["value"] is None else str(cw["value"])
        out.append(
            f"bounds k={row['k']}: walk-pair F_k+d+r = {wp['multiexponent']}"
            f"+{wp['diameter']}+{wp['pair_length']} = {wp['value']}; "
            f"closed-walk = {cw_text}"
        )
    return "\n".join(out) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"
