"""Domain data model: risk specifications, instances, traces.

All arrays are float64 and frozen read-only at construction, and
construction refuses data outside the model's domain: a
:class:`RiskSpec` or :class:`Instance` that exists is valid.  Scheme
indices are 0-based throughout; a decision is either ``None`` (request
skipped) or an ``int`` in ``range(k)``.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
from .gaussian import safety_coefficient


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
        _refuse("risk spec", (
            ("confidence levels must lie strictly inside (0, 1)",
             eta is None or np.all((eta > 0) & (eta < 1))),
            ("normalized caps must be finite and positive",
             cap is None or np.all(np.isfinite(cap) & (cap > 0))),
            ("safety coefficients must be finite and nonnegative",
             psi is None or np.all(np.isfinite(psi) & (psi >= 0))),
        ))
        # consistency is checked on valid values only, so that
        # safety_coefficient never sees an eta outside (0, 1)
        if psi is not None and (eta is not None or cap is not None):
            expect = [safety_coefficient(None if eta is None else float(eta[j]),
                                         None if cap is None else float(cap[j]))
                      for j in range(len(psi))]
            _refuse("risk spec", (("safety coefficients inconsistent with risk targets",
                                   np.allclose(psi, expect, atol=1e-9)),))

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
        for name in ("c", "a_bar", "k_diag", "d"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
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

    def fill(self, start: int, *out: np.ndarray):
        for dst, src in zip(out, (self.c, self.a_bar, self.k_diag)):
            dst[...] = src[start:start + len(dst)]


#: Requests read from a row source at a time: 92 KB at m = 4, k = 5.
CHUNK = 256


def blocks(rows):
    """Yield (start, c, a_bar, k_diag) per :data:`CHUNK` requests of ``rows``
    in reused buffers.  A row source (an :class:`Instance`, a ``RequestDraws``)
    has ``n``, ``k``, ``d``, ``risk`` and ``fill(start, c, a_bar, k_diag)``."""
    m, k = len(rows.d), rows.k
    buffers = np.empty((CHUNK, k)), np.empty((CHUNK, m, k)), np.empty((CHUNK, m, k))
    for start in range(0, rows.n, CHUNK):
        block = [x[:rows.n - start] for x in buffers]
        rows.fill(start, *block)
        yield start, *block


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
# are lossless.  An instance file is streamed both ways: written a block of
# requests at a time, hashed as written, under a temporary name renamed into
# place; read back by hashing it in chunks against its sidecar.
# ---------------------------------------------------------------------------

#: The risk arrays, in ``RiskSpec``'s field order.
_RISK_FIELDS = ("eta", "gamma_tilde", "psi")


def _risk_arrays(risk: RiskSpec) -> dict:
    return {name: getattr(risk, name) for name in _RISK_FIELDS
            if getattr(risk, name) is not None}


def _json_field(doc: dict, name: str, types=(int, float), many: bool = False):
    """``doc[name]`` if of one of ``types`` (with ``many``, a list of them),
    else a DomainError naming the field; true and false are not numbers."""
    value = doc[name]
    if not (type(value) is list and all(type(v) in types for v in value) if many
            else type(value) in types):
        raise DomainError(f"field {name!r} has the wrong JSON type")
    return value


def _request_field(reqs: list, name: str, depth: int) -> np.ndarray:
    """Field ``name`` of every request, stacked; a DomainError names the field
    unless each holds a rectangular list ``depth`` deep of JSON numbers."""
    rows = [r[name] for r in reqs]
    items = rows
    for level in range(depth + 1):
        if not set(map(type, items)) <= ({list} if level < depth else {int, float}):
            raise DomainError(f"field {name!r} has the wrong JSON type")
        if level < depth:
            items = list(chain.from_iterable(items))
    try:
        return np.array(rows, dtype=float)
    except (ValueError, OverflowError) as err:
        raise DomainError(f"field {name!r} is ragged or out of the range of doubles") from err


def _known(keys, fields) -> None:
    """A DomainError naming the least of ``keys`` outside ``fields``."""
    if unknown := set(keys) - set(fields):
        raise DomainError(f"unknown field {min(unknown)!r}")


def _read_record(path, build):
    """``build(doc)`` of the JSON object ``doc`` in the file ``path``.  Bytes that
    are not UTF-8 text or not JSON, another JSON value, a missing field and a
    refusal of ``build`` raise one DomainError naming the file."""
    try:
        doc = json.loads(Path(path).read_bytes())
        if type(doc) is not dict:
            raise DomainError("it does not hold a JSON object")
        return build(doc)
    except UnicodeDecodeError as err:
        raise DomainError(f"{path} is not UTF-8 text ({err.reason} at byte {err.start})") from err
    except KeyError as err:
        raise DomainError(f"{path} lacks the field {err}") from err
    except (json.JSONDecodeError, DomainError, StructuralError) as err:
        raise DomainError(f"{path}: {err}") from err


def _instance_from_dict(doc: dict) -> Instance:
    _known(doc, ("n", "m", "k", "d", "risk", "requests"))
    risk_doc = {} if doc.get("risk") is None else _json_field(doc, "risk", (dict,))
    _known(risk_doc, _RISK_FIELDS)
    risk = RiskSpec(**{name: _json_field(risk_doc, name, many=True)
                       for name in _RISK_FIELDS if risk_doc.get(name) is not None})
    reqs = _json_field(doc, "requests", (list,))
    if not reqs or not set(map(type, reqs)) <= {dict}:
        raise DomainError("field 'requests' must be a nonempty list of objects")
    _known(chain.from_iterable(reqs), ("c", "a_bar", "k_diag"))
    inst = Instance(_request_field(reqs, "c", 1), _request_field(reqs, "a_bar", 2),
                    _request_field(reqs, "k_diag", 2), _json_field(doc, "d", many=True), risk)
    for name in ("n", "m", "k"):
        if name in doc and _json_field(doc, name, (int,)) != getattr(inst, name):
            raise StructuralError(
                f"declared {name}={doc[name]} does not match request data "
                f"({getattr(inst, name)})")
    return inst


def _sidecar(path: Path) -> Path:
    """The binary copy ``<path>.npz`` of an instance file's arrays."""
    return path.with_name(path.name + ".npz")


def _write_replacing(path: Path, write, then=None) -> None:
    """Call ``write`` on the binary file ``<path>.<pid>.tmp``, and ``then`` if
    given, then rename that file to ``path``, so no reader sees half a file.
    On any exception the temporary file is removed and the exception raised
    again, leaving an earlier file at ``path``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            write(fh)
        if then is not None:
            then()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _request_json(c: list, a_bar: list, k_diag: list) -> str:
    """One request of an instance file."""
    return json.dumps({"c": c, "a_bar": a_bar, "k_diag": k_diag})


def save_instance(instance, path) -> None:
    """Write the row source ``instance`` (see :func:`blocks`), an :class:`Instance`
    or a :class:`~socalloc.generate.RequestDraws` whose instance is then never
    built, to the JSON file ``path``, the record, and its arrays with the
    SHA-256 of that JSON to the sidecar ``<path>.npz``.

    Requests are read :data:`CHUNK` at a time: the JSON is streamed and
    hashed as written, then each sidecar member is written block by
    block, one pass over the source each, with ``np.savez``'s bytes and
    order.  Both files go through :func:`_write_replacing`; a failed JSON
    write raises, and if the sidecar cannot be written the JSON alone
    stands.  The sidecar spares :func:`load_instance` the JSON decode.
    """
    import hashlib  # here, not at the top: its import adds about 3 ms to every start-up
    path, n, m, k, d = Path(path), instance.n, len(instance.d), instance.k, instance.d
    risk, sha256 = _risk_arrays(instance.risk), hashlib.sha256()
    head = json.dumps({"n": n, "m": m, "k": k, "d": d.tolist(),
                       "risk": {name: v.tolist() for name, v in risk.items()}})

    def write(fh):
        def put(text: str) -> None:
            data = text.encode()
            sha256.update(data)
            fh.write(data)
        put(head[:-1] + ', "requests": [')
        for start, c, a_bar, k_diag in blocks(instance):
            block = zip(c.tolist(), a_bar.tolist(), k_diag.tolist())
            put((", " if start else "") + ", ".join(_request_json(*row) for row in block))
        put("]}")

    def write_sidecar(fh):
        with zipfile.ZipFile(fh, "w", allowZip64=True) as z:
            def member(name: str):
                return z.open(name + ".npy", "w", force_zip64=True)
            with member("sha256") as out:
                np.lib.format.write_array(out, np.frombuffer(sha256.digest(), np.uint8))
            for i, (name, shape) in enumerate({"c": (n, k), "a_bar": (n, m, k),
                                               "k_diag": (n, m, k)}.items(), 1):
                with member(name) as out:
                    np.lib.format.write_array_header_1_0(
                        out, {"descr": np.dtype(float).str, "fortran_order": False, "shape": shape})
                    for block in blocks(instance):
                        out.write(memoryview(block[i]))
            for name, array in {"d": d, **risk}.items():
                with member(name) as out:
                    np.lib.format.write_array(out, array)

    _write_replacing(path, write)
    try:
        _write_replacing(_sidecar(path), write_sidecar)
    except OSError:
        pass


def _owner(a: np.ndarray) -> np.ndarray:
    """The 1-D array ``np.load`` read ``a`` into, reshaped and frozen for
    :func:`_frozen` to adopt, if ``a`` is a C-order view of all of it; else ``a``."""
    owner = a.base
    if (isinstance(owner, np.ndarray) and owner.base is None and owner.ndim == 1
            and owner.dtype == a.dtype and owner.size == a.size and a.flags.c_contiguous):
        owner.shape = a.shape
        owner.setflags(write=False)
        return owner
    return a


def _sidecar_arrays(path: Path) -> dict | None:
    """The arrays of ``path``'s sidecar if it holds the SHA-256 of the JSON file
    ``path``, hashed in chunks; None if it is missing, stale or unreadable (zipfile
    refuses some damaged flag bits with NotImplementedError or RuntimeError)."""
    import hashlib
    try:
        with np.load(_sidecar(path), allow_pickle=False) as z:
            with path.open("rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").digest()
            if not np.array_equal(z["sha256"], np.frombuffer(digest, dtype=np.uint8)):
                return None
            names = ("c", "a_bar", "k_diag", "d") + tuple(r for r in _RISK_FIELDS if r in z)
            return {name: _owner(z[name]) for name in names}
    except (OSError, EOFError, ValueError, KeyError, RuntimeError, NotImplementedError,
            zipfile.BadZipFile):
        return None


def load_instance(path) -> Instance:
    """The instance in the JSON file ``path``.  Its arrays come from the
    sidecar :func:`save_instance` wrote when that holds the digest of the
    JSON, hashed without reading the file whole; else the JSON is read
    and decoded.  Either way the constructors check the arrays."""
    path = Path(path)
    arrays = _sidecar_arrays(path)
    if arrays is None:
        return _read_record(path, _instance_from_dict)
    return Instance(arrays["c"], arrays["a_bar"], arrays["k_diag"], arrays["d"],
                    RiskSpec(*(arrays.get(name) for name in _RISK_FIELDS)))


def _trace_to_dict(trace: SolutionTrace) -> dict:
    return {
        "decisions": [d if d is None else int(d) for d in trace.decisions],
        "objective": trace.objective,
        "mean_consumption": trace.mean_consumption.tolist(),
        "variance_accum": trace.variance_accum.tolist(),
        "max_dual_inf": trace.max_dual_inf,
    }


def _trace_from_dict(doc: dict) -> SolutionTrace:
    _known(doc, ("decisions", "objective", "mean_consumption", "variance_accum", "max_dual_inf"))
    return SolutionTrace(
        decisions=tuple(_json_field(doc, "decisions", (list,))),
        objective=float(_json_field(doc, "objective")),
        mean_consumption=_json_field(doc, "mean_consumption", many=True),
        variance_accum=_json_field(doc, "variance_accum", many=True),
        max_dual_inf=float(_json_field(doc, "max_dual_inf")),
    )


def save_trace(trace: SolutionTrace, path) -> None:
    _write_replacing(Path(path), lambda fh: fh.write(json.dumps(_trace_to_dict(trace)).encode()))


def load_trace(path) -> SolutionTrace:
    return _read_record(path, _trace_from_dict)
