"""Command-line interface: JSON problem ingestion, analyzer dispatch,
certificate and trajectory emission, exit codes for CI use.

Exit-code contract: 0 success, 1 bad input (I/O, parse, schema, validation,
document mismatch), 2 the infimum is minus infinity, 3 not passive,
4 verification failed. Every command is deterministic given (document,
flags) except for the timing_seconds field of result documents.

Result documents are written compact (sorted keys, no whitespace) and name
their problem by problem_sha256, a hash of its values: the numbers as
float64, not as spelled, so re-indenting the problem or writing 1 for 1.0
keeps a result verifiable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._num import as_matrix
from .analyzers import (BracketFailure, Certificate, EscapeUnexpected,
                        dri_cloud, hinf_norm_bisection, iqc_infimum,
                        passivity_test, solve_lqr, solve_stoch_lqr,
                        verify_solution)
from .covariance import Gain
from .model import (BoundedReal, GeneralIQC, LQR, PositiveReal, ProblemSpec,
                    CostData, StateSpace, StochLQR, TimeGrid, ValidationError)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MINUS_INFINITY = 2
EXIT_NOT_PASSIVE = 3
EXIT_VERIFY_FAIL = 4

SCHEMA_VERSION = "1"

__all__ = [
    "main",
    "DocumentError",
    "parse_problem",
    "problem_sha256",
    "certificate_document",
    "write_trajectory_csv",
]


class DocumentError(ValueError):
    """Problem or result document is malformed; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# document parsing

def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise DocumentError(path, f"cannot read file: {e}") from e

    def reject(literal):
        raise DocumentError(path, f"non-finite number {literal} is not "
                                  "valid problem data")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise DocumentError(
            path, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e


def _obj(doc, key, path, required=True):
    val = doc.get(key)
    if val is None:
        if required:
            raise DocumentError(f"{path}.{key}", "missing required object")
        return None
    if not isinstance(val, dict):
        raise DocumentError(f"{path}.{key}", "must be a JSON object")
    return val


def _known_keys(doc, path, allowed):
    """Reject a key the problem schema does not allow in this object, so
    that a misspelled or retired key fails instead of being ignored."""
    for key in doc:
        if key not in allowed:
            raise DocumentError(f"{path}.{key}", "unknown key; allowed: "
                                + ", ".join(allowed))


def _num(doc, key, path, required=True, default=None):
    val = doc.get(key, default)
    if val is None:
        if required:
            raise DocumentError(f"{path}.{key}", "missing required number")
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise DocumentError(f"{path}.{key}", f"must be a number, got {val!r}")
    return float(val)


def _int(doc, key, path, required=True):
    val = doc.get(key)
    if val is None:
        if required:
            raise DocumentError(f"{path}.{key}", "missing required integer")
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        raise DocumentError(f"{path}.{key}", "must be an integer")
    return val


def _grid(T, steps, path):
    try:
        return TimeGrid(T=T, steps=steps)
    except ValueError as e:
        raise DocumentError(path, str(e)) from e


def _matrix(doc, key, path, required=True):
    val = doc.get(key)
    if val is None:
        if required:
            raise DocumentError(f"{path}.{key}", "missing required matrix")
        return None
    try:
        arr = as_matrix(val)
    except (TypeError, ValueError) as e:
        raise DocumentError(f"{path}.{key}", f"not a numeric array: {e}") from e
    if arr.ndim not in (1, 2, 3):
        raise DocumentError(f"{path}.{key}",
                            f"expected 1-, 2- or 3-dimensional array, "
                            f"got {arr.ndim} dimensions")
    return arr


# the keys the problem schema allows in each object, and in each variant
_OBJECT_KEYS = {
    "$": ("schema_version", "system", "horizon", "variant", "options"),
    "system": ("A", "B", "C", "D"),
    "horizon": ("T", "steps"),
    "options": ("seed",),
}
_VARIANT_KEYS = {
    "lqr": ("type", "Q", "N", "R", "x_i"),
    "stoch_lqr": ("type", "Q", "N", "R", "X_i", "W"),
    "general_iqc": ("type", "Q", "N", "R", "x_i"),
    "bounded_real": ("type", "gamma"),
    "positive_real": ("type",),
}


def _variant_from_doc(vdoc: dict):
    vtype = vdoc.get("type")
    if not isinstance(vtype, str):
        raise DocumentError("variant.type", "missing variant tag")
    if vtype not in _VARIANT_KEYS:
        raise DocumentError("variant.type", f"unknown variant {vtype!r}")
    _known_keys(vdoc, "variant", _VARIANT_KEYS[vtype])

    def cost():
        q = _matrix(vdoc, "Q", "variant")
        r = _matrix(vdoc, "R", "variant")
        nmat = _matrix(vdoc, "N", "variant", required=False)
        try:
            return CostData(Q=q, N=nmat, R=r)
        except ValueError as e:
            raise DocumentError("variant", str(e)) from e

    try:
        if vtype == "lqr":
            return LQR(cost=cost(), x_i=_matrix(vdoc, "x_i", "variant"))
        if vtype == "stoch_lqr":
            return StochLQR(cost=cost(),
                            X_i=_matrix(vdoc, "X_i", "variant"),
                            W=_matrix(vdoc, "W", "variant"))
        if vtype == "general_iqc":
            return GeneralIQC(cost=cost(), x_i=_matrix(vdoc, "x_i", "variant"))
        if vtype == "bounded_real":
            return BoundedReal(gamma=_num(vdoc, "gamma", "variant",
                                          required=False, default=1.0))
        return PositiveReal()
    except DocumentError:
        raise
    except ValueError as e:
        raise DocumentError("variant", str(e)) from e


def parse_problem(doc, steps_override=None, T_override=None):
    """Turn a problem document into (ProblemSpec, options dict).

    Raises DocumentError with a field path on any structural problem;
    variant-level semantic checks stay in validate().
    """
    if not isinstance(doc, dict):
        raise DocumentError("$", "document root must be a JSON object")
    _known_keys(doc, "$", _OBJECT_KEYS["$"])
    sv = doc.get("schema_version")
    if sv != SCHEMA_VERSION:
        raise DocumentError("schema_version",
                            f"expected {SCHEMA_VERSION!r}, got {sv!r}")

    system = _obj(doc, "system", "$")
    _known_keys(system, "system", _OBJECT_KEYS["system"])
    try:
        sys_obj = StateSpace(
            A=_matrix(system, "A", "system"),
            B=_matrix(system, "B", "system"),
            C=_matrix(system, "C", "system", required=False),
            D=_matrix(system, "D", "system", required=False),
        )
    except ValueError as e:
        raise DocumentError("system", str(e)) from e

    horizon = _obj(doc, "horizon", "$", required=False) or {}
    _known_keys(horizon, "horizon", _OBJECT_KEYS["horizon"])
    T = T_override if T_override is not None else _num(
        horizon, "T", "horizon", required=T_override is None)
    steps = _int(horizon, "steps", "horizon", required=False)
    if steps_override is not None:
        steps = steps_override
    grid = _grid(T, 512 if steps is None else steps, "horizon")

    variant = _variant_from_doc(_obj(doc, "variant", "$"))

    opts_doc = _obj(doc, "options", "$", required=False) or {}
    _known_keys(opts_doc, "options", _OBJECT_KEYS["options"])
    seed = _num(opts_doc, "seed", "options", required=False, default=0)
    # the schema's integer >= 0; a fractional seed must not be truncated
    if not (seed.is_integer() and seed >= 0):
        raise DocumentError("options.seed", "must be a nonnegative integer, "
                                            f"got {opts_doc['seed']!r}")
    return ProblemSpec(sys=sys_obj, grid=grid, variant=variant), \
        {"seed": int(seed)}


def _numeric_array(val):
    """val as float64 if it is a number or a regular nested list of numbers."""
    leaves = np.array(val, dtype=object)
    if set(map(type, leaves.flat)) <= {int, float}:
        try:
            return leaves.astype("<f8")
        except OverflowError:  # an integer beyond float64
            pass


def _value_bytes(val):
    arr = _numeric_array(val)
    if arr is not None:
        yield f"a{arr.shape}:".encode() + arr.tobytes()
    elif isinstance(val, (dict, list)):
        # an object is its sorted keys, each followed by its value
        yield b"{" if isinstance(val, dict) else b"["
        for item in ([x for k in sorted(val) for x in (k, val[k])]
                     if isinstance(val, dict) else val):
            yield from _value_bytes(item)
            yield b","
        yield b"]"
    else:
        yield json.dumps(val).encode()


def problem_sha256(doc) -> str:
    """SHA-256 of the document's values, not of their spelling. Objects go
    in by sorted key; a number or regular nested list of numbers as its
    shape and little-endian float64 bytes (so 1 and 1.0 hash alike); other
    values as JSON, each key, value and item followed by a delimiter."""
    return hashlib.sha256(b"".join(_value_bytes(doc))).hexdigest()


# ---------------------------------------------------------------------------
# document emission

def _json_num(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _gain_payload(gain):
    if gain is None:
        return None
    k = gain.K
    return {
        "m": int(k.shape[1]),
        "n": int(k.shape[2]),
        "nodes": k.reshape(k.shape[0], -1).tolist(),
    }


def _header(kind: str, problem_hash: str, grid: TimeGrid) -> dict:
    """Fields every result document starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "tool": {"name": "lqconic", "version": __version__},
        "problem_sha256": problem_hash,
        "grid": {"T": grid.T, "steps": grid.steps},
    }


def certificate_document(cert: Certificate, problem_hash: str,
                         timing: float) -> dict:
    doc = {
        **_header("certificate", problem_hash, cert.grid),
        "variant": cert.variant,
        "optimal_value": _json_num(cert.optimal_value),
        "minus_infinity": bool(cert.minus_infinity),
        "escape_time": _json_num(cert.escape_time),
        "primal_value": _json_num(cert.primal_value),
        "duality_gap": _json_num(cert.duality_gap),
        "descriptor_residual": _json_num(cert.descriptor_residual),
        "gain": _gain_payload(cert.gain),
        "timing_seconds": float(timing),
    }
    if cert.lam_max_eig is not None:
        doc["lam_max_eig"] = _json_num(cert.lam_max_eig)
    if cert.verdict is not None:
        doc["verdict"] = bool(cert.verdict)
    return doc


def _emit(doc: dict, out_path=None):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_trajectory_csv(path, traj, prefix: str = "l"):
    """Write node samples as CSV: time column plus row-major matrix entries,
    17 significant digits (bitwise round-trip). Invalid (escaped) nodes are
    skipped. Accepts dual trajectories (.values) and gain schedules (.K)."""
    values = traj.values if hasattr(traj, "values") else traj.K
    rows_n, cols_n = values.shape[1], values.shape[2]
    header = ["t"] + [f"{prefix}_{i}_{j}"
                      for i in range(rows_n) for j in range(cols_n)]
    lines = [",".join(header)]
    times = traj.grid.times()
    for k in range(values.shape[0]):
        if not np.isfinite(values[k]).all():
            continue
        cells = [_fmt(times[k])] + [_fmt(v) for v in values[k].ravel()]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _export_certificate_csvs(cert: Certificate, csv_dir):
    out = Path(csv_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cert.lam is not None:
        write_trajectory_csv(out / "dual.csv", cert.lam, prefix="l")
    if cert.gain is not None:
        write_trajectory_csv(out / "gain.csv", cert.gain, prefix="k")


# ---------------------------------------------------------------------------
# subcommands

def _load_problem(args, expected):
    """Load and parse a subcommand's problem document and check that its
    variant tag is one of ``expected``. Returns (document, ProblemSpec,
    options)."""
    doc = _load_json(args.problem)
    spec, options = parse_problem(doc, steps_override=args.steps,
                                  T_override=args.T)
    got = doc["variant"]["type"]
    if got not in expected:
        wants = " or ".join(repr(tag) for tag in expected)
        raise DocumentError("variant.type", f"subcommand {args.command!r} "
                                            f"needs a {wants} problem, got "
                                            f"{got!r}")
    return doc, spec, options


# certificate subcommand -> (help, problem variant tag, run); run looks its
# analyzer up by module-level name when called, so a rebinding of that name
# (a tracer's wrapper, a test's spy) takes effect
_CERTIFICATE_COMMANDS = {
    "lqr": ("deterministic regulator optimum", "lqr",
            lambda spec: solve_lqr(spec)),
    "slqr": ("stochastic regulator optimum", "stoch_lqr",
             lambda spec: solve_stoch_lqr(spec)),
    "iqc": ("sign-indefinite quadratic infimum", "general_iqc",
            lambda spec: iqc_infimum(spec)),
    "passivity": ("finite-horizon passivity test", "positive_real",
                  lambda spec: passivity_test(
                      spec.sys, spec.grid.T, steps=spec.grid.steps)[1]),
}


def cmd_certificate(args):
    """Run a certificate subcommand: exit 3 on a failed verdict, 2 on a
    minus-infinity value, 0 otherwise."""
    _, expected, run = _CERTIFICATE_COMMANDS[args.command]
    doc, spec, _ = _load_problem(args, (expected,))
    t0 = time.perf_counter()
    cert = run(spec)
    timing = time.perf_counter() - t0
    result = certificate_document(cert, problem_sha256(doc), timing)
    _emit(result, args.out)
    if args.csv_dir:
        _export_certificate_csvs(cert, args.csv_dir)
    if cert.verdict is False:
        return EXIT_NOT_PASSIVE
    return EXIT_MINUS_INFINITY if cert.minus_infinity else EXIT_OK


def cmd_hinf(args):
    doc, spec, _ = _load_problem(args, ("bounded_real",))
    # --tol is the bracket width; without it the bisection keeps its own
    if args.tol is not None and not args.tol > 0:
        raise DocumentError("--tol", f"must be positive, got {args.tol!r}")
    width = {} if args.tol is None else {"tol": args.tol}
    t0 = time.perf_counter()
    res = hinf_norm_bisection(spec.sys, spec.grid.T, steps=spec.grid.steps,
                              **width)
    timing = time.perf_counter() - t0
    _emit({
        **_header("norm_result", problem_sha256(doc), spec.grid),
        "gamma_star": res.gamma_star,
        "iterations": res.iterations,
        "bracket": [res.bracket[0], res.bracket[1]],
        "timing_seconds": timing,
    }, args.out)
    return EXIT_OK


def cmd_dri_cloud(args):
    doc, spec, options = _load_problem(args, ("lqr", "general_iqc"))
    seed = args.seed if args.seed is not None else options["seed"]
    report = dri_cloud(spec, n_samples=args.samples, switch_points=10,
                       seed=seed)

    csv_dir = Path(args.csv_dir)
    csv_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(csv_dir / "dre.csv", report.dre.lam)
    for i, sample in enumerate(report.samples):
        write_trajectory_csv(csv_dir / f"sample_{i:03d}.csv", sample.lam)

    summary = {
        **_header("dri_cloud_summary", problem_sha256(doc), spec.grid),
        "n_samples": len(report.samples),
        "switch_points": report.switch_points,
        "seed": report.seed,
        "maximal": bool(report.maximal),
        "worst_margin": _json_num(report.worst_margin),
        "n_escaped": report.n_escaped,
        "dre_escaped": bool(report.dre.escaped),
        "dre_escape_time": _json_num(report.dre.escape_time),
        "escape_times": [_json_num(s.escape_time) for s in report.samples],
    }
    _emit(summary, args.out or str(csv_dir / "summary.json"))
    return EXIT_OK


def _certificate_from_document(res: dict) -> Certificate:
    """The claims verify checks, each of its type: the grid (integer steps,
    finite positive T), boolean flags (verdict may be absent), numbers or
    null, and a gain of m*n finite entries at every node of the grid."""
    for key in ("variant", "grid", "minus_infinity"):
        if key not in res:
            raise DocumentError(f"result.{key}", "missing required field")
    gdoc = _obj(res, "grid", "result")
    grid = _grid(_num(gdoc, "T", "result.grid"),
                 _int(gdoc, "steps", "result.grid"), "result.grid")
    for key in ("minus_infinity", "verdict"):
        if not isinstance(res.get(key, False), bool):
            raise DocumentError(f"result.{key}", "must be a boolean, got "
                                                 f"{res[key]!r}")
    gain = None
    gdata = _obj(res, "gain", "result", required=False)
    if gdata is not None:
        m, n = _int(gdata, "m", "result.gain"), _int(gdata, "n", "result.gain")
        nodes = _matrix(gdata, "nodes", "result.gain")
        if min(m, n) < 1 or nodes.shape != (grid.steps + 1, m * n):
            raise DocumentError("result.gain", (
                f"needs {grid.steps + 1} nodes of m*n = {m}*{n} entries, "
                f"got an array of shape {nodes.shape}"))
        if not np.isfinite(nodes).all():
            raise DocumentError("result.gain.nodes", "non-finite entries")
        gain = Gain(grid, nodes.reshape(-1, m, n))
    claims = {key: _num(res, key, "result", required=False) for key in (
        "optimal_value", "escape_time", "primal_value", "duality_gap",
        "descriptor_residual", "lam_max_eig")}
    return Certificate(variant=res["variant"], grid=grid, gain=gain,
                       minus_infinity=res["minus_infinity"],
                       verdict=res.get("verdict"), **claims)


def cmd_verify(args):
    pdoc = _load_json(args.problem)
    rdoc = _load_json(args.result)
    if not isinstance(rdoc, dict):
        raise DocumentError("result", "result document must be a JSON object")
    want = rdoc.get("problem_sha256")
    have = problem_sha256(pdoc)
    if want != have:
        print(f"error: problem hash mismatch: result was produced for "
              f"{want}, this problem hashes to {have}", file=sys.stderr)
        return EXIT_INPUT
    # the problem is re-solved on the grid the result claims, which
    # --steps and --T may have set apart from the document's horizon
    cert = _certificate_from_document(rdoc)
    spec, _ = parse_problem(pdoc, steps_override=cert.grid.steps,
                            T_override=cert.grid.T)
    report = verify_solution(spec, cert)
    for c in report.checks:
        mark = "ok  " if c.ok else "FAIL"
        print(f"{mark} {c.name}: {c.value:.6g} (allowed {c.threshold:.6g})")
    for note in report.notes:
        print(f"note: {note}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser

def _add_common(p, csv_dir=True):
    p.add_argument("problem", help="path to a problem JSON document")
    p.add_argument("--out", default=None, help="result path (default stdout)")
    p.add_argument("--steps", type=int, default=None,
                   help="override grid steps (default document or 512)")
    p.add_argument("--T", type=float, default=None,
                   help="override horizon length")
    if csv_dir:
        p.add_argument("--csv-dir", default=None,
                       help="also export trajectories as CSV into this directory")


@functools.cache  # built once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqconic",
        description="Finite-horizon linear-quadratic analysis with "
                    "Riccati-extremal certificates.")
    parser.add_argument("--version", action="version",
                        version=f"lqconic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (summary, *_) in _CERTIFICATE_COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        _add_common(p)
        p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("hinf", help="finite-horizon induced-norm bisection")
    _add_common(p, csv_dir=False)
    p.add_argument("--tol", type=float, default=None,
                   help="bracket width of the bisection (default 1e-4)")
    p.set_defaults(func=cmd_hinf)

    p = sub.add_parser("dri-cloud",
                       help="forced-inequality solution cloud experiment")
    _add_common(p, csv_dir=False)
    p.add_argument("--samples", type=int, default=100,
                   help="number of forced samples (default 100)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default document options or 0)")
    p.add_argument("--csv-dir", default="dri_cloud_out",
                   help="output directory for per-trajectory CSVs")
    p.set_defaults(func=cmd_dri_cloud)

    p = sub.add_parser("verify",
                       help="re-derive a result document's claims at a "
                            "refined grid")
    p.add_argument("problem", help="problem JSON document")
    p.add_argument("result", help="result JSON document to verify")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which the contract reads as
        # "the infimum is minus infinity"; --help and --version exit 0
        if e.code != 2:
            raise
        return EXIT_INPUT
    try:
        return args.func(args)
    except (DocumentError, EscapeUnexpected, BracketFailure,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationError as e:
        for v in e.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: malformed input: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
