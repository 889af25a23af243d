"""CodeML control (``.ctl``) file support.

CodeML is driven by a ``key = value`` parameter file (paper §II: "a
dedicated parameter file is read by CodeML to set model parameters and
corresponding optimization options").  We parse the subset relevant to
the branch-site test, validate the combination (``model = 2`` +
``NSsites = 2`` is branch-site model A; ``fix_omega`` selects H0/H1) and
add SlimCodeML-specific extension keys (``max_iterations``, ``seed``).

Unknown keys are collected — not fatal — so real CodeML control files
can be reused as-is.  That includes an ``engine`` line: ``run`` always
uses the slim-v2 engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Union

__all__ = ["ControlFile", "parse_ctl", "write_ctl"]

PathLike = Union[str, os.PathLike]

_CODON_FREQ_NAMES = {0: "equal", 1: "f1x4", 2: "f3x4", 3: "f61"}


@dataclass
class ControlFile:
    """Parsed control-file settings with CodeML defaults."""

    seqfile: str = ""
    treefile: str = ""
    outfile: str = "mlc"
    #: 2 = branch models with marked branches (required for branch-site).
    model: int = 2
    #: 2 = site classes of model A (required for branch-site).
    nssites: int = 2
    #: 1 fixes ω2 (H0); 0 estimates it (H1).
    fix_omega: int = 0
    #: Initial (or fixed) ω value.
    omega: float = 1.0
    #: Initial κ.
    kappa: float = 2.0
    fix_kappa: int = 0
    #: 0 equal, 1 F1x4, 2 F3x4 (CodeML default for codons), 3 F61.
    codon_freq: int = 2
    #: 1 removes columns with gaps/ambiguity before analysis.
    cleandata: int = 0
    icode: int = 0
    #: Extension: optimizer iteration budget.
    max_iterations: int = 200
    #: Extension: RNG seed for start values (paper fixes this, §IV).
    seed: int = 1
    #: Keys present in the file we do not interpret.
    unknown: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model != 2 or self.nssites != 2:
            raise ValueError(
                "this reproduction implements the branch-site test: "
                f"model = 2 and NSsites = 2 are required (got model={self.model}, "
                f"NSsites={self.nssites})"
            )
        if self.fix_omega not in (0, 1):
            raise ValueError(f"fix_omega must be 0 or 1, got {self.fix_omega}")
        if self.codon_freq not in _CODON_FREQ_NAMES:
            raise ValueError(f"CodonFreq must be 0-3, got {self.codon_freq}")
        if self.icode != 0:
            raise ValueError("only icode = 0 (universal code) is supported")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")

    @property
    def freq_method(self) -> str:
        return _CODON_FREQ_NAMES[self.codon_freq]

    @property
    def hypothesis(self) -> str:
        """H0 when ω2 is fixed (at 1), H1 otherwise."""
        return "H0" if self.fix_omega else "H1"


_KEY_MAP = {
    "seqfile": ("seqfile", str),
    "treefile": ("treefile", str),
    "outfile": ("outfile", str),
    "model": ("model", int),
    "nssites": ("nssites", int),
    "fix_omega": ("fix_omega", int),
    "omega": ("omega", float),
    "kappa": ("kappa", float),
    "fix_kappa": ("fix_kappa", int),
    "codonfreq": ("codon_freq", int),
    "cleandata": ("cleandata", int),
    "icode": ("icode", int),
    "max_iterations": ("max_iterations", int),
    "seed": ("seed", int),
}


def parse_ctl_text(text: str) -> ControlFile:
    """Parse control-file text (``*`` starts a comment, PAML style)."""
    settings: Dict[str, object] = {}
    unknown: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("*", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entry = _KEY_MAP.get(key.lower())
        if entry is None:
            unknown[key] = value
            continue
        field_name, cast = entry
        try:
            settings[field_name] = cast(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: cannot parse {value!r} as {cast.__name__} for {key}"
            ) from None
    return ControlFile(unknown=unknown, **settings)


def parse_ctl(source: PathLike) -> ControlFile:
    """Parse a control file from disk."""
    with open(source, "r", encoding="utf-8") as handle:
        return parse_ctl_text(handle.read())


def write_ctl(ctl: ControlFile, destination: PathLike) -> None:
    """Serialise settings back to CodeML syntax (extensions included)."""
    lines = [
        f"      seqfile = {ctl.seqfile}",
        f"     treefile = {ctl.treefile}",
        f"      outfile = {ctl.outfile}",
        "",
        f"        model = {ctl.model}   * 2: branches with marked foreground",
        f"      NSsites = {ctl.nssites}   * 2: site classes of model A",
        f"    fix_omega = {ctl.fix_omega}   * 1: H0 (omega2 = 1), 0: H1",
        f"        omega = {ctl.omega:g}",
        f"        kappa = {ctl.kappa:g}",
        f"    fix_kappa = {ctl.fix_kappa}",
        f"    CodonFreq = {ctl.codon_freq}   * 0 equal, 1 F1x4, 2 F3x4, 3 F61",
        f"    cleandata = {ctl.cleandata}",
        f"        icode = {ctl.icode}",
        "",
        f"max_iterations = {ctl.max_iterations}   * SlimCodeML extension",
        f"         seed = {ctl.seed}",
    ]
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
