"""Domain data model: requests, risk specifications, instances, traces.

All arrays are float64 and frozen read-only at construction, so
instances and traces can be shared freely across threads.  Scheme
indices are 0-based throughout; a decision is either ``None`` (request
skipped) or an ``int`` in ``range(k)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, StructuralError
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


@dataclass(frozen=True)
class Request:
    """One arriving request: k schemes against m resources.

    ``c`` has shape (k,) and holds per-scheme revenue; ``a_bar`` and
    ``k_diag`` have shape (m, k) and hold the mean consumption and the
    consumption variance of each scheme on each resource.
    """

    c: np.ndarray
    a_bar: np.ndarray
    k_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(self.c))
        object.__setattr__(self, "a_bar", _frozen(self.a_bar))
        object.__setattr__(self, "k_diag", _frozen(self.k_diag))
        m, k = self.a_bar.shape
        if self.c.shape != (k,) or self.k_diag.shape != (m, k):
            raise StructuralError(
                f"inconsistent request shapes: c{self.c.shape}, "
                f"a_bar{self.a_bar.shape}, k_diag{self.k_diag.shape}")

    @property
    def gamma(self) -> np.ndarray:
        """Per-scheme consumption standard deviations, shape (m, k)."""
        return np.sqrt(self.k_diag)


@dataclass(frozen=True)
class RiskSpec:
    """Per-resource risk targets and the derived safety coefficients.

    ``eta`` holds confidence levels in (0, 1), ``gamma_tilde`` holds
    positive normalized conditional-expectation caps; either may be
    absent but downstream transforms require at least one.  ``psi`` is
    derived (see :func:`socalloc.transform.to_soc`) and stays ``None``
    until then.
    """

    eta: np.ndarray | None = None
    gamma_tilde: np.ndarray | None = None
    psi: np.ndarray | None = None

    def __post_init__(self):
        for name in ("eta", "gamma_tilde", "psi"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _frozen(v))
        lengths = {len(v) for v in (self.eta, self.gamma_tilde, self.psi) if v is not None}
        if len(lengths) > 1:
            raise StructuralError(f"risk spec entries differ in length: {sorted(lengths)}")

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
    budget is ``n * d``.
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

    @property
    def gamma(self) -> np.ndarray:
        """Consumption standard deviations, shape (n, m, k)."""
        return np.sqrt(self.k_diag)

    def request(self, t: int) -> Request:
        return Request(self.c[t], self.a_bar[t], self.k_diag[t])

    def requests(self) -> Iterator[Request]:
        for t in range(self.n):
            yield self.request(t)

    @classmethod
    def from_requests(cls, requests, d, risk: RiskSpec | None = None) -> "Instance":
        requests = list(requests)
        if not requests:
            raise StructuralError("instance needs at least one request")
        c = np.stack([r.c for r in requests])
        a_bar = np.stack([r.a_bar for r in requests])
        k_diag = np.stack([r.k_diag for r in requests])
        return cls(c, a_bar, k_diag, d, risk or RiskSpec())


@dataclass(frozen=True)
class SolutionTrace:
    """Outcome of one full pass over an instance.

    ``decisions`` has one entry per request (``None`` or scheme index).
    ``mean_consumption[j]`` accumulates the chosen mean consumptions and
    ``variance_accum[j]`` the chosen variances, so the cone-form usage
    of resource j is ``mean_consumption[j] + psi[j] *
    sqrt(variance_accum[j])``.
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


def validate_instance(instance: Instance) -> list[str]:
    """Collect every invariant violation; an empty list means valid."""
    problems: list[str] = []
    if not np.all(instance.d > 0):
        problems.append("budget must be positive in every resource")
    if not np.all(np.isfinite(instance.c)):
        problems.append("revenues must be finite")
    if not np.all(np.isfinite(instance.a_bar)):
        problems.append("mean consumptions must be finite")
    if not np.all(np.isfinite(instance.k_diag)):
        problems.append("variances must be finite")
    if np.any(instance.k_diag < 0):
        problems.append("variance must be nonnegative")
    risk = instance.risk
    if risk.eta is not None and not np.all((risk.eta > 0) & (risk.eta < 1)):
        problems.append("confidence levels must lie strictly inside (0, 1)")
    if risk.gamma_tilde is not None and not np.all(risk.gamma_tilde > 0):
        problems.append("normalized caps must be positive")
    if risk.psi is not None:
        if np.any(risk.psi < 0):
            problems.append("safety coefficients must be nonnegative")
        elif risk.eta is not None or risk.gamma_tilde is not None:
            try:
                expect = np.array([
                    safety_coefficient(
                        None if risk.eta is None else float(risk.eta[j]),
                        None if risk.gamma_tilde is None else float(risk.gamma_tilde[j]))
                    for j in range(instance.m)])
            except (ValueError, ConfigError):
                expect = None
            if expect is not None and not np.allclose(risk.psi, expect, atol=1e-9):
                problems.append("safety coefficients inconsistent with risk targets")
    return problems


# ---------------------------------------------------------------------------
# JSON serialization.  Python's json writes floats with repr(), which is the
# shortest string that parses back to the identical double, so round trips
# are lossless.
# ---------------------------------------------------------------------------

def instance_to_dict(instance: Instance) -> dict:
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


def instance_from_dict(doc: dict) -> Instance:
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
    Path(path).write_text(json.dumps(instance_to_dict(instance)))


def load_instance(path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text()))


def trace_to_dict(trace: SolutionTrace) -> dict:
    return {
        "decisions": [d if d is None else int(d) for d in trace.decisions],
        "objective": trace.objective,
        "mean_consumption": trace.mean_consumption.tolist(),
        "variance_accum": trace.variance_accum.tolist(),
        "max_dual_inf": trace.max_dual_inf,
    }


def trace_from_dict(doc: dict) -> SolutionTrace:
    return SolutionTrace(
        decisions=tuple(doc["decisions"]),
        objective=float(doc["objective"]),
        mean_consumption=doc["mean_consumption"],
        variance_accum=doc["variance_accum"],
        max_dual_inf=float(doc.get("max_dual_inf", 0.0)),
    )


def save_trace(trace: SolutionTrace, path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path) -> SolutionTrace:
    return trace_from_dict(json.loads(Path(path).read_text()))
