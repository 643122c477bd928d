"""Soundness verdicts for families of embeddings of a common group.

A family descriptor asks whether the pushout of the family embeds into its
compact counterpart.  Each decided verdict names exactly one criterion from
a fixed whitelist; certificates are plain JSON-ready dictionaries so the
CLI can print them verbatim in either format.  A finite normal family's
certificate is characters.fin_check's, whose docstring gives its layout; a
prefix verdict adds its multiplicity sequences to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .amalgam import split_decomposition_check
from .characters import fin_check
from .descriptors import (
    group_from_descriptor,
    hom_from_descriptor,
    parse,
    table_group_from_descriptor,
)
from .errors import InvariantViolation, SchemaError
from .zmat import MatrixGroupResult, torus_soundness

CRITERIA = frozenset({
    "torus-joint-action-finite",
    "torus-joint-action-infinite",
    "compact-automorphism-group",
    "split-family",
})

SOUND = "Sound"
UNSOUND = "Unsound"
UNKNOWN = "UnknownPrefixOnly"  # a family declared infinite, by a prefix
UNKNOWN_MIXTURE = "UnknownMixture"  # sound members, no joint criterion


@dataclass(frozen=True)
class SoundnessVerdict:
    verdict: str
    criterion: str | None
    certificate: dict

    def __post_init__(self):
        if self.verdict in (SOUND, UNSOUND):
            if self.criterion not in CRITERIA:
                raise InvariantViolation(
                    f"decided verdict with unknown criterion {self.criterion!r}")
        elif self.criterion is not None:
            raise InvariantViolation(
                f"undecided verdict names criterion {self.criterion!r}")

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict in (SOUND, UNSOUND) else 2

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "criterion": self.criterion,
            "certificate": self.certificate,
        }


def serialize_matrix_group(res: MatrixGroupResult) -> dict:
    out: dict = {"finite": res.finite, "rank": res.rank}
    if res.finite:
        out["order"] = res.order
        if res.order is not None and res.order <= config.SERIALIZE_ELEMENTS_MAX:
            out["elements"] = res.matrices.tolist()
    else:
        out["witness_count"] = res.witness_count
    return out


def _torus_verdict(d: dict) -> SoundnessVerdict:
    result = torus_soundness(d["rank"], d["factor_generators"])
    certificate = {
        "rank": result.rank,
        "factor_orders": list(result.factor_orders),
        "joint": serialize_matrix_group(result.joint),
    }
    if result.sound:
        return SoundnessVerdict(SOUND, "torus-joint-action-finite", certificate)
    return SoundnessVerdict(UNSOUND, "torus-joint-action-infinite", certificate)


def build_normal_family(d: dict, where: str):
    """The kernel group and the embeddings a normal-family descriptor names;
    every group is refused past CHARTABLE_MAX_ORDER before it is built."""
    d = parse(d, "normal-family", where)
    kernel = table_group_from_descriptor(d["kernel"])
    return kernel, [hom_from_descriptor(kernel, e, f"{where}.embeddings[{i}]")
                    for i, e in enumerate(d["embeddings"])]


def _normal_verdict(d: dict, where: str, table) -> SoundnessVerdict:
    kernel, embs = build_normal_family(d, where)
    prefix = d["kind"] == "normal-family-prefix"
    if prefix and not embs:
        raise SchemaError(f"{where}: a prefix declaration needs members")
    certificate = fin_check(embs, source=kernel, table=table)
    if not prefix:
        return SoundnessVerdict(SOUND, "compact-automorphism-group", certificate)
    n = len(embs)
    sequences = {}
    growing = []
    for r in certificate["reports"]:
        seq = [r["per_member"][str(i)] for i in range(n)]
        sequences[str(r["rho"])] = seq
        if n >= 2 and all(a < b for a, b in zip(seq, seq[1:])):
            growing.append(r["rho"])
    certificate.update({
        "multiplicity_sequences": sequences,
        "growing_classes": growing,
        "growth_flag": bool(growing),
        "note": "verdict covers only the materialized prefix of a family "
                "declared infinite",
    })
    return SoundnessVerdict(UNKNOWN, None, certificate)


def _split_verdict(d: dict) -> SoundnessVerdict:
    kernel = group_from_descriptor(d["kernel"])
    members = [(group_from_descriptor(m["normal"]), m["action"])
               for m in d["members"]]
    split_decomposition_check(kernel, members)
    return SoundnessVerdict(SOUND, "split-family", {
        "kernel_order": kernel.order,
        "member_orders": [grp.order for grp, _ in members],
        "kind": "split",
    })


def _family_verdict(d: dict, where: str, table) -> SoundnessVerdict:
    if d["kind"] == "torus-family":
        return _torus_verdict(d)
    if d["kind"] == "split-family":
        return _split_verdict(d)
    if d["kind"] == "mixed-family":
        return _mixed_verdict(d, where, table)
    return _normal_verdict(d, where, table)


def _mixed_verdict(d: dict, where: str, table) -> SoundnessVerdict:
    members = d["members"]
    if not members:
        raise SchemaError(f"{where}: a mixed family needs members")
    inner = [_family_verdict(m, f"{where}.members[{i}]", table)
             for i, m in enumerate(members)]
    for i, v in enumerate(inner):
        # a subfamily of a sound family is sound, so one bad member settles it
        if v.verdict == UNSOUND:
            return SoundnessVerdict(UNSOUND, v.criterion, {
                "deciding_member": i,
                "member_certificate": v.certificate,
            })
    if {m["kind"] for m in members} == {"torus-family"} \
            and len({m["rank"] for m in members}) == 1:
        joint = _torus_verdict({
            "rank": members[0]["rank"],
            "factor_generators": [gens for m in members
                                  for gens in m["factor_generators"]],
        })
        joint.certificate["joint_decision_over_members"] = len(members)
        return joint
    return SoundnessVerdict(UNKNOWN_MIXTURE, None, {
        "members": [{"verdict": v.verdict, "criterion": v.criterion}
                    for v in inner],
        "note": "members are individually sound but no joint criterion "
                "applies to the mixture",
    })


def soundness_verdict(request: dict, table=None) -> SoundnessVerdict:
    """Decide a family request parsed from JSON.

    `table(group, prime=None)` provides the character tables of normal
    families; None means characters.character_table, looked up when
    fin_check runs.  The CLI passes cache.cached_character_table.
    """
    return _family_verdict(parse(request, "family", "request"), "request", table)
