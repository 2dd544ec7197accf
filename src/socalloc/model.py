"""Domain data model: risk specifications, instances, traces.

All arrays are float64 and frozen read-only at construction, and
construction refuses data outside the model's domain: a
:class:`RiskSpec` or :class:`Instance` that exists is valid.  Scheme
indices are 0-based throughout; a decision is either ``None`` (request
skipped) or an ``int`` in ``range(k)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
from .gaussian import safety_coefficient

Decision = Optional[int]


def _frozen(a, dtype=float) -> np.ndarray:
    """``a`` as a read-only array.  A read-only array of ``dtype`` that
    owns its data is adopted as it is; anything else is copied, so a
    caller's writable array can never change the frozen one."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
            and not a.flags.writeable):
        return a
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _refuse(what: str, checks) -> None:
    """One DomainError naming the text of every (text, ok) check that fails."""
    problems = [text for text, ok in checks if not ok]
    if problems:
        raise DomainError(f"invalid {what}: " + "; ".join(problems))


@dataclass(frozen=True)
class RiskSpec:
    """Per-resource risk targets and the derived safety coefficients.

    ``eta`` holds confidence levels in (0, 1), ``gamma_tilde`` holds
    positive normalized conditional-expectation caps; either may be
    absent but downstream transforms require at least one.  ``psi`` is
    derived (see :func:`socalloc.transform.to_soc`) and stays ``None``
    until then; given, it is finite, nonnegative and, with targets, the
    coefficients they imply (to atol 1e-9).  Construction raises one
    :class:`DomainError` naming every violation.
    """

    eta: np.ndarray | None = None
    gamma_tilde: np.ndarray | None = None
    psi: np.ndarray | None = None

    def __post_init__(self):
        for name in ("eta", "gamma_tilde", "psi"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _frozen(v))
        eta, cap, psi = self.eta, self.gamma_tilde, self.psi
        lengths = {len(v) for v in (eta, cap, psi) if v is not None}
        if len(lengths) > 1:
            raise StructuralError(f"risk spec entries differ in length: {sorted(lengths)}")
        problems = []
        if eta is not None and not np.all((eta > 0) & (eta < 1)):
            problems.append("confidence levels must lie strictly inside (0, 1)")
        if cap is not None and not np.all(np.isfinite(cap) & (cap > 0)):
            problems.append("normalized caps must be finite and positive")
        if psi is not None:
            if not np.all(np.isfinite(psi) & (psi >= 0)):
                problems.append("safety coefficients must be finite and nonnegative")
            elif not problems and (eta is not None or cap is not None):
                expect = [safety_coefficient(None if eta is None else float(eta[j]),
                                             None if cap is None else float(cap[j]))
                          for j in range(len(psi))]
                if not np.allclose(psi, expect, atol=1e-9):
                    problems.append("safety coefficients inconsistent with risk targets")
        if problems:
            raise DomainError("invalid risk spec: " + "; ".join(problems))

    @property
    def m(self) -> int | None:
        for v in (self.eta, self.gamma_tilde, self.psi):
            if v is not None:
                return len(v)
        return None


@dataclass(frozen=True)
class Instance:
    """A full allocation problem over n requests.

    Request data is stored stacked: ``c`` is (n, k), ``a_bar`` and
    ``k_diag`` are (n, m, k).  ``d`` is the per-step budget; the total
    budget is ``n * d``.  Coefficients are finite, variances
    nonnegative and ``d`` finite and positive; construction raises one
    :class:`DomainError` naming every violation.
    """

    c: np.ndarray
    a_bar: np.ndarray
    k_diag: np.ndarray
    d: np.ndarray
    risk: RiskSpec = field(default_factory=RiskSpec)

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(self.c))
        object.__setattr__(self, "a_bar", _frozen(self.a_bar))
        object.__setattr__(self, "k_diag", _frozen(self.k_diag))
        object.__setattr__(self, "d", _frozen(self.d))
        n, m, k = self.a_bar.shape
        if self.c.shape != (n, k) or self.k_diag.shape != (n, m, k):
            raise StructuralError(
                f"inconsistent instance shapes: c{self.c.shape}, "
                f"a_bar{self.a_bar.shape}, k_diag{self.k_diag.shape}")
        if self.d.shape != (m,):
            raise StructuralError(f"d must have shape ({m},), got {self.d.shape}")
        rm = self.risk.m
        if rm is not None and rm != m:
            raise StructuralError(f"risk spec has {rm} entries for {m} resources")
        _refuse("instance", (
            ("budget must be positive and finite in every resource",
             np.all(np.isfinite(self.d) & (self.d > 0))),
            ("revenues must be finite", np.isfinite(self.c).all()),
            ("mean consumptions must be finite", np.isfinite(self.a_bar).all()),
            ("variances must be finite", np.isfinite(self.k_diag).all()),
            ("variances must be nonnegative", not (self.k_diag < 0).any()),
        ))

    @property
    def n(self) -> int:
        return self.a_bar.shape[0]

    @property
    def m(self) -> int:
        return self.a_bar.shape[1]

    @property
    def k(self) -> int:
        return self.a_bar.shape[2]

    @property
    def budget(self) -> np.ndarray:
        """Total budget n * d, shape (m,)."""
        return self.n * self.d


@dataclass(frozen=True)
class SolutionTrace:
    """Outcome of one full pass over an instance.

    ``decisions`` has one entry per request (``None`` or scheme index).
    ``mean_consumption[j]`` accumulates the chosen mean consumptions and
    ``variance_accum[j]`` the chosen variances, so the cone-form usage
    of resource j is ``mean_consumption[j] + psi[j] *
    sqrt(variance_accum[j])``; totals and peak price are finite, variances and
    peak price nonnegative, or one :class:`DomainError` names every violation.
    """

    decisions: tuple
    objective: float
    mean_consumption: np.ndarray
    variance_accum: np.ndarray
    max_dual_inf: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "decisions", tuple(self.decisions))
        object.__setattr__(self, "mean_consumption", _frozen(self.mean_consumption))
        object.__setattr__(self, "variance_accum", _frozen(self.variance_accum))
        _refuse("trace", (
            ("objective must be finite", np.isfinite(self.objective)),
            ("mean consumptions must be finite", np.isfinite(self.mean_consumption).all()),
            ("accumulated variances must be finite and nonnegative",
             np.all(np.isfinite(self.variance_accum) & (self.variance_accum >= 0))),
            ("the peak price must be finite and nonnegative",
             np.isfinite(self.max_dual_inf) and self.max_dual_inf >= 0),
        ))


def soc_lhs(trace: SolutionTrace, instance: Instance) -> np.ndarray:
    """Cone-form resource usage of a trace, one value per resource.

    Returns mean_consumption + psi * sqrt(variance_accum).  Requires the
    instance's derived safety coefficients.
    """
    if instance.risk.psi is None:
        raise ConfigError("instance risk has no derived safety coefficients; "
                          "apply to_soc first")
    if trace.mean_consumption.shape != (instance.m,):
        raise StructuralError(
            f"trace covers {trace.mean_consumption.shape[0]} resources, "
            f"instance has {instance.m}")
    return trace.mean_consumption + instance.risk.psi * np.sqrt(trace.variance_accum)


# ---------------------------------------------------------------------------
# JSON serialization.  Python's json writes floats with repr(), which is the
# shortest string that parses back to the identical double, so round trips
# are lossless.
# ---------------------------------------------------------------------------

def _instance_to_dict(instance: Instance) -> dict:
    risk: dict = {}
    if instance.risk.eta is not None:
        risk["eta"] = instance.risk.eta.tolist()
    if instance.risk.gamma_tilde is not None:
        risk["gamma_tilde"] = instance.risk.gamma_tilde.tolist()
    if instance.risk.psi is not None:
        risk["psi"] = instance.risk.psi.tolist()
    return {
        "n": instance.n,
        "m": instance.m,
        "k": instance.k,
        "d": instance.d.tolist(),
        "risk": risk,
        "requests": [
            {"c": instance.c[t].tolist(),
             "a_bar": instance.a_bar[t].tolist(),
             "k_diag": instance.k_diag[t].tolist()}
            for t in range(instance.n)
        ],
    }


def _instance_from_dict(doc: dict) -> Instance:
    risk_doc = doc.get("risk") or {}
    risk = RiskSpec(
        eta=risk_doc.get("eta"),
        gamma_tilde=risk_doc.get("gamma_tilde"),
        psi=risk_doc.get("psi"),
    )
    reqs = doc["requests"]
    c = np.array([r["c"] for r in reqs])
    a_bar = np.array([r["a_bar"] for r in reqs])
    k_diag = np.array([r["k_diag"] for r in reqs])
    inst = Instance(c, a_bar, k_diag, doc["d"], risk)
    for name in ("n", "m", "k"):
        if name in doc and doc[name] != getattr(inst, name):
            raise StructuralError(
                f"declared {name}={doc[name]} does not match request data "
                f"({getattr(inst, name)})")
    return inst


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(json.dumps(_instance_to_dict(instance)))


def load_instance(path) -> Instance:
    return _instance_from_dict(json.loads(Path(path).read_text()))


def _trace_to_dict(trace: SolutionTrace) -> dict:
    return {
        "decisions": [d if d is None else int(d) for d in trace.decisions],
        "objective": trace.objective,
        "mean_consumption": trace.mean_consumption.tolist(),
        "variance_accum": trace.variance_accum.tolist(),
        "max_dual_inf": trace.max_dual_inf,
    }


def _json_field(doc: dict, name: str, types=(int, float), many: bool = False):
    """``doc[name]`` if of one of ``types`` (with ``many``, a list of them),
    else a DomainError naming the field; true and false are not numbers."""
    value = doc[name]
    if not (type(value) is list and all(type(v) in types for v in value) if many
            else type(value) in types):
        raise DomainError(f"field {name!r} has the wrong JSON type")
    return value


def _trace_from_dict(doc: dict) -> SolutionTrace:
    return SolutionTrace(
        decisions=tuple(_json_field(doc, "decisions", (list,))),
        objective=float(_json_field(doc, "objective")),
        mean_consumption=_json_field(doc, "mean_consumption", many=True),
        variance_accum=_json_field(doc, "variance_accum", many=True),
        max_dual_inf=float(_json_field(doc, "max_dual_inf")) if "max_dual_inf" in doc else 0.0,
    )


def save_trace(trace: SolutionTrace, path) -> None:
    Path(path).write_text(json.dumps(_trace_to_dict(trace)))


def load_trace(path) -> SolutionTrace:
    return _trace_from_dict(json.loads(Path(path).read_text()))
