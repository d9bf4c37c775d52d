"""Configuration, orchestration and reporting front end.

Config files are plain text `key = value` lines (# comments allowed).
Values: scalars (int/float/str) or comma-separated lists; key paths are
flat dotted names documented per subcommand in SCHEMAS. Unknown keys,
type mismatches and range violations (a list key left empty counts as one,
unless its default is the empty list, and so does a nan or inf value) are
rejected with line numbers and distinct exit codes (10/11/12); other
configuration problems exit 2, among them a key set on two lines, a list
value given twice, a `--seed` outside [0, 2**64), a `--seed` given to a
subcommand that draws nothing from it and an `--out` that names an existing
file. Verdict failures exit 1, numerical-resolution flags exit 3.

Subcommands that fan out (`threshold` over its sweep cells, `waveop` over
wave-operator c-nodes) do so through `spectral.process_map`, over every
CPU in the affinity mask; there is no option for it. `main` runs in
`spectral.one_blas_thread()`: one BLAS thread per process, whatever the
environment sets, so the bytes written do not depend on it. `evolve`
advances the coupled mode system by its exact block exponential and has no
method key, so a config that still sets `method` is rejected as an unknown
key (exit 10). `all-acceptance` has no keys: it runs every criterion at full
size.

This module alone knows the report file format. Every emitted file carries
one envelope, {tool, version, timestamp, config}: a JSON report holds it as
its `envelope` section, and a CSV table's first line is `# envelope: `
followed by the same dict as compact sorted JSON. `check-report` applies the
same field and `tool == "kolmoflow"` checks to both. Rerunning with
identical config and seed reproduces the payload section and every CSV body
byte for byte (the timestamp lives only in the envelope). A subcommand
computes everything before it writes anything, so a configuration error
leaves no output directory behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import ConfigurationError, ModeParams, build_grid, one_blas_thread

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_UNKNOWN_KEY = 10
EXIT_TYPE = 11
EXIT_RANGE = 12

SUBCOMMANDS = ("psi", "resolvent-sweep", "evolve", "alpha1", "waveop", "dns",
               "threshold", "all-acceptance", "check-report")
SEEDED = ("evolve", "dns", "threshold")   # the subcommands that draw from --seed


class ConfigError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _typ(name, kind, default=None, required=False, lo=None, hi=None,
         choices=None, lo_strict=False, hi_strict=False, item=float):
    return {"name": name, "kind": kind, "default": default, "required": required,
            "lo": lo, "hi": hi, "choices": choices,
            "lo_strict": lo_strict, "hi_strict": hi_strict, "item": item}


_MODE_KEYS = [
    _typ("nu", float, required=True, lo=0.0, lo_strict=True),
    _typ("gamma", float, required=True),
    _typ("k_f", float, required=True, lo=0.0, hi=1.0, lo_strict=True),
    _typ("k1", int, required=True),
    _typ("k3", int, required=True),
]

SCHEMAS: dict[str, list[dict]] = {
    "psi": _MODE_KEYS + [
        _typ("n", int, default=256, lo=16),
        _typ("operator", str, default="H", choices=("H", "L", "Q1L")),
        _typ("scan_count", int, default=128, lo=16),
    ],
    "resolvent-sweep": [
        _typ("kind", str, default="Nlambda",
             choices=("Nlambda", "Llambda", "Lu-form")),
        _typ("nu", list, required=True),
        _typ("alpha", list, required=True),
        _typ("lambda", list, required=True),
        _typ("beta", list, default=[]),
    ],
    "evolve": _MODE_KEYS + [
        _typ("n", int, default=96, lo=16),
        _typ("t_end", float, default=20.0, lo=0.0, lo_strict=True),
        _typ("dt", float, default=0.05, lo=0.0, lo_strict=True),
    ],
    "alpha1": [
        _typ("nu", list, required=True),
        _typ("gamma", list, required=True),
        _typ("k1", int, default=1),
        _typ("n", int, default=64, lo=16),
    ],
    "waveop": [
        _typ("alpha", list, default=[2.0, 4.0, 8.0, 16.0]),
        _typ("levels", list, default=[256, 512, 1024], item=int),
        _typ("ensemble", int, default=20, lo=20),
    ],
    "dns": [
        _typ("nu", float, required=True, lo=0.0, lo_strict=True),
        _typ("gamma", float, required=True),
        _typ("k_f", float, required=True, lo=0.0, hi=1.0,
             lo_strict=True, hi_strict=True),
        _typ("n", int, default=32, lo=8, hi=64),
        _typ("epsilon", float, default=1e-3, lo=0.0),
        _typ("t_end", float, default=0.0, lo=0.0),
        _typ("dt", float, default=0.0, lo=0.0),
    ],
    "threshold": [
        _typ("nu", list, required=True),
        _typ("epsilon", list, required=True),
        _typ("k_f", float, default=0.5, lo=0.0, hi=1.0,
             lo_strict=True, hi_strict=True),
        _typ("n", int, default=16, lo=8, hi=64),
    ],
    "all-acceptance": [],
}


@dataclass
class RunConfig:
    subcommand: str
    values: dict
    out_dir: Path
    seed: int = 0

    def echo(self) -> dict:
        """The envelope's config: a seed only where the run draws from one."""
        seed = {"seed": self.seed} if self.subcommand in SEEDED else {}
        return {"subcommand": self.subcommand, **seed, **self.values}


def _parse_scalar(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(text: str, subcommand: str) -> dict:
    """Parse and validate `key = value` text against the subcommand schema.

    Raises ConfigError carrying the first problem found, with its line
    number and a distinct exit code per error class.
    """
    if subcommand not in SCHEMAS:
        raise ConfigError(f"no config schema for subcommand {subcommand!r}")
    schema = {e["name"]: e for e in SCHEMAS[subcommand]}
    values: dict = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'", EXIT_CONFIG)
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", EXIT_UNKNOWN_KEY)
        if key in set_on:
            raise ConfigError(
                f"line {lineno}: key {key!r} is already set on line {set_on[key]}",
                EXIT_CONFIG)
        set_on[key] = lineno
        ent = schema[key]
        if ent["kind"] is list:
            vals = [_parse_scalar(v) for v in raw.split(",") if v.strip()]
            if not all(isinstance(v, int if ent["item"] is int else (int, float))
                       for v in vals):
                raise ConfigError(f"line {lineno}: key {key!r} wants "
                                  f"{ent['item'].__name__} values, got {raw!r}", EXIT_TYPE)
            if not vals and ent["default"] != []:
                raise ConfigError(
                    f"line {lineno}: key {key!r} wants at least one value", EXIT_RANGE)
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(
                    f"line {lineno}: key {key!r} wants finite values, got {raw!r}",
                    EXIT_RANGE)
            if len(set(vals)) < len(vals):
                raise ConfigError(
                    f"line {lineno}: key {key!r} repeats a value, got {raw!r}", EXIT_CONFIG)
            values[key] = [ent["item"](v) for v in vals]
            continue
        val = _parse_scalar(raw)
        if ent["kind"] is int:
            if not isinstance(val, int):
                raise ConfigError(
                    f"line {lineno}: key {key!r} wants an integer, got {raw!r}",
                    EXIT_TYPE)
        elif ent["kind"] is float:
            if not isinstance(val, (int, float)):
                raise ConfigError(
                    f"line {lineno}: key {key!r} wants a number, got {raw!r}",
                    EXIT_TYPE)
            if not math.isfinite(val):
                raise ConfigError(
                    f"line {lineno}: key {key!r} wants a finite number, got {raw!r}",
                    EXIT_RANGE)
            val = float(val)
        elif ent["kind"] is str:
            val = str(val)
        if ent["choices"] and val not in ent["choices"]:
            raise ConfigError(
                f"line {lineno}: key {key!r} must be one of {ent['choices']}",
                EXIT_RANGE)
        lo, hi = ent["lo"], ent["hi"]
        if isinstance(val, (int, float)):
            if lo is not None and (val <= lo if ent["lo_strict"] else val < lo):
                raise ConfigError(
                    f"line {lineno}: key {key!r} range violation: {val} "
                    f"{'<=' if ent['lo_strict'] else '<'} {lo}", EXIT_RANGE)
            if hi is not None and (val >= hi if ent["hi_strict"] else val > hi):
                raise ConfigError(
                    f"line {lineno}: key {key!r} range violation: {val} "
                    f"{'>=' if ent['hi_strict'] else '>'} {hi}", EXIT_RANGE)
        values[key] = val
    for ent in SCHEMAS[subcommand]:
        if ent["required"] and ent["name"] not in values:
            raise ConfigError(f"missing required key {ent['name']!r}", EXIT_CONFIG)
        values.setdefault(ent["name"], ent["default"])
    return values


# ---------------------------------------------------------------------------
# envelopes and deterministic serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def payload_bytes(payload: dict) -> bytes:
    return json.dumps(_jsonable(payload), sort_keys=True,
                      separators=(",", ":")).encode()


def _envelope(cfg: RunConfig) -> dict:
    return {"tool": "kolmoflow",
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": _jsonable(cfg.echo())}


def write_report(path: Path, envelope: dict, payload: dict, passed: bool) -> None:
    doc = {"envelope": envelope,
           "payload": json.loads(payload_bytes(payload).decode()),
           "summary": {"passed": bool(passed)}}
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


CSV_ENVELOPE = "# envelope: "


def _csv_cell(x) -> str:
    """One CSV cell. Real numbers, numpy scalars included, are written as
    repr(float(x)), which float() reads back exactly; None is empty."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return "" if x is None else str(x)


def write_csv_table(path: Path, columns: list[str], rows, envelope: dict) -> None:
    """Write the envelope line, the column row, then one row per sequence."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_ENVELOPE + payload_bytes(envelope).decode() + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        w.writerows([_csv_cell(x) for x in row] for row in rows)


def check_report(path: Path) -> dict:
    """Validate an emitted report: a JSON report, or a CSV table whose first
    line carries the same envelope. Both must name tool "kolmoflow". A CSV
    table carries no verdict, so its summary reads passed: None."""
    text = Path(path).read_text()
    if text.startswith("#"):
        first, _, rest = text.partition("\n")
        if not first.startswith(CSV_ENVELOPE):
            raise ConfigError("CSV report lacks an envelope header")
        header = rest.split("\n", 1)[0]
        if "," not in header:
            raise ConfigError("CSV report lacks a column header row")
        doc = {"envelope": json.loads(first[len(CSV_ENVELOPE):]),
               "payload": {"columns": header.split(",")},
               "summary": {"passed": None}}
    else:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigError("report is not a JSON object")
        for section in ("envelope", "payload", "summary"):
            if section not in doc:
                raise ConfigError(f"report missing section {section!r}")
        if not isinstance(doc["summary"], dict) or "passed" not in doc["summary"]:
            raise ConfigError("report summary lacks 'passed'")
    env = doc["envelope"] if isinstance(doc["envelope"], dict) else {}
    for key in ("tool", "version", "timestamp", "config"):
        if key not in env:
            raise ConfigError(f"envelope missing field {key!r}")
    if env["tool"] != "kolmoflow":
        raise ConfigError(f"not a kolmoflow report: tool={env['tool']!r}")
    if not isinstance(env["config"], dict):
        raise ConfigError("envelope config is not a mapping")
    return doc


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

# A runner returns (payload, passed, resolution_flag, tables); `tables` maps
# a CSV file name to (columns, rows). Runners write nothing: run_subcommand
# writes every file once the runner has returned.

SWEEP_COLUMNS = ["kind", "which", "nu", "gamma", "k_f", "k1", "k3", "alpha", "beta",
                 "lam", "lam_star", "n", "sigma_min", "psi", "ratio", "flag"]


def _mode_params(v: dict) -> ModeParams:
    return ModeParams(nu=v["nu"], gamma=v["gamma"], k_f=v["k_f"],
                      k1=int(v["k1"]), k3=int(v["k3"]))


def _run_psi(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import pseudospectra as ps
    v = cfg.values
    p = _mode_params(v)
    res = ps.psi_for_params(p, v["operator"], n=v["n"], scan_count=v["scan_count"])
    adequate = ps.psi_grid(p, v["n"]).adequate
    table = [{"lam": float(l), "sigma_min": float(s)}
             for l, s in zip(res.lam_grid, res.sigma_grid)]
    record = res.as_record()
    if not adequate:
        record["flags"].append("grid inadequate: n < 8/delta")
    payload = {"psi": record, "scan": table}
    tables = {"psi_scan.csv": (["lam", "sigma_min"], zip(res.lam_grid, res.sigma_grid))}
    return payload, res.psi > 0, not (res.converged and adequate), tables


def _run_resolvent_sweep(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import acceptance
    from . import pseudospectra as ps
    v = cfg.values
    betas = v["beta"] or None
    c_hat, rows = ps.resolvent_bound_sweep(
        v["kind"], v["nu"], v["alpha"], v["lambda"], betas=betas)
    payload = {"C_hat": c_hat.as_record(),
               "rows": [{k: _jsonable(val) for k, val in r.items()} for r in rows]}
    passed = all(c["passed"] for c in acceptance.resolvent_checks(v["kind"], c_hat))
    tables = {"resolvent_sweep.csv": (
        SWEEP_COLUMNS, [[r.get(c) for c in SWEEP_COLUMNS] for r in rows])}
    return payload, passed, len(c_hat.sweep) < len(rows), tables


def _run_evolve(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import acceptance
    from . import evolution as ev
    v = cfg.values
    p = _mode_params(v)
    grid = build_grid(v["n"], p)
    rng = np.random.default_rng(cfg.seed)
    f0 = grid.random_coeffs(rng)
    g0 = grid.random_coeffs(rng)
    f0 /= grid.norm_coeffs(f0)
    g0 /= grid.norm_coeffs(g0)
    traj = ev.evolve_coupled(p, f0, g0, v["t_end"], v["dt"], grid=grid)
    fit_f = ev.fit_decay_rate(traj, "f")
    fit_g = ev.fit_decay_rate(traj, "g", prefactor=True)
    floor = acceptance.f_rate_floor_check("f rate", fit_f.rate, p)
    payload = {"fit_f": fit_f.as_record(), "fit_g": fit_g.as_record(),
               "nu_kappa2": floor["bound"]}
    tables = {"trajectory.csv": (
        ["t", "norm_f", "norm_g", "norm_q1f", "norm_p1f", "norm_dyf"],
        zip(traj.times, traj.norm_f, traj.norm_g, traj.norm_q1f,
            traj.norm_p1f, traj.norm_dyf))}
    return payload, floor["passed"], False, tables


def _run_alpha1(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import acceptance
    from . import evolution as ev
    v = cfg.values
    rows = [ev.alpha1_suite(nu=nu, gamma=gamma, k1=int(v["k1"]), n=v["n"],
                            t_end=3.0 / nu, dt=3.0 / nu / 400.0)
            for nu in v["nu"] for gamma in v["gamma"]]
    passed = all(c["passed"] for r in rows for c in (
        acceptance.conservation_check(r["conservation_drift"]),
        acceptance.lowerb_check("LowerB ratio", r["lowerb_ratio"]),
        acceptance.q1_rate_check(r)))
    return {"rows": rows}, passed, False, {}


def _run_waveop(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import waveop as wv
    v = cfg.values
    inter = wv.intertwining_residual(
        {"sin2y": lambda y: np.sin(2 * y)}, v["alpha"][0], v["levels"])
    bounds = wv.bound_sweep(v["alpha"], ensemble=v["ensemble"])
    payload = {"intertwining": _jsonable(inter["rows"]),
               "bound_stability": _jsonable(bounds["stability"])}
    return payload, inter["passed"] and bounds["passed"], False, {}


def _run_dns(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import dns
    v = cfg.values
    kw = {}
    if v["t_end"] > 0:
        kw["t_end"] = v["t_end"]
    if v["dt"] > 0:
        kw["dt"] = v["dt"]
    c = dns.DNSConfig(nu=v["nu"], gamma=v["gamma"], k_f=v["k_f"],
                      n=(v["n"],) * 3, epsilon=v["epsilon"], seed=cfg.seed, **kw)
    out = dns.run_simulation(c)
    payload = {"outcome": out["outcome"], "rate_neq": _jsonable(out["rate_neq"]),
               "m0": out["m0"], "m1": out["m1"],
               "m0_over_v0": out["m0_over_v0"], "resolved": out["resolved"]}
    passed = out["outcome"] != "blew-up(numerical)" if v["epsilon"] > 0 else True
    tables = {"dns_diagnostics.csv": (
        [f.name for f in fields(dns.DiagnosticsFrame)],
        [astuple(fr) for fr in out["tracker"].frames])}
    return payload, passed, not out["resolved"], tables


def _run_threshold(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import dns
    v = cfg.values
    tmap = dns.run_threshold_sweep(
        sorted(v["nu"]), sorted(v["epsilon"]),
        {"k_f": v["k_f"], "n": (v["n"],) * 3, "seed": cfg.seed})
    unresolved = any(not r["resolved"] for r in tmap.rows)
    return _jsonable(tmap.as_record()), tmap.monotone_in_nu(), unresolved, {}


def _run_all_acceptance(cfg: RunConfig) -> tuple[dict, bool, bool, dict]:
    from . import acceptance
    out = acceptance.run_all()
    return _jsonable(out), out["passed"], False, {}


RUNNERS = {
    "psi": _run_psi,
    "resolvent-sweep": _run_resolvent_sweep,
    "evolve": _run_evolve,
    "alpha1": _run_alpha1,
    "waveop": _run_waveop,
    "dns": _run_dns,
    "threshold": _run_threshold,
    "all-acceptance": _run_all_acceptance,
}


def run_subcommand(cfg: RunConfig) -> int:
    """Run a parsed RunConfig, then write its tables and report; returns the exit code.

    An `--out` that cannot become a directory is refused before anything runs."""
    existing = next(p for p in (cfg.out_dir, *cfg.out_dir.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {cfg.out_dir}: {existing} exists and is not a directory")
    payload, passed, res_flag, tables = RUNNERS[cfg.subcommand](cfg)
    envelope = _envelope(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for name, (columns, rows) in tables.items():
        write_csv_table(cfg.out_dir / name, columns, rows, envelope)
    write_report(cfg.out_dir / f"{cfg.subcommand.replace('-', '_')}_report.json",
                 envelope, payload, passed)
    if not passed:
        return EXIT_VERDICT
    if res_flag:
        return EXIT_RESOLUTION
    return EXIT_OK


@one_blas_thread()
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="kolmoflow",
        description="pseudospectral bounds, decay envelopes and stability probes "
                    "for the 3D Kolmogorov flow")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", type=Path, default=None,
                    help="plain-text key=value configuration file")
    ap.add_argument("--out", type=Path, default=Path("out"),
                    help="output directory for reports and CSV tables")
    ap.add_argument("--seed", type=int, help="RNG seed in [0, 2**64), default 0; "
                    f"{', '.join(SEEDED)} only")
    ap.add_argument("--report", type=Path, default=None,
                    help="file to validate (check-report only)")
    args = ap.parse_args(argv)
    if args.seed is not None and args.subcommand not in SEEDED:
        print(f"configuration error: --seed: {args.subcommand} draws nothing from a seed",
              file=sys.stderr)
        return EXIT_CONFIG

    if args.subcommand == "check-report":
        target = args.report or args.config
        if target is None:
            print("check-report needs --report <file>", file=sys.stderr)
            return EXIT_CONFIG
        try:
            doc = check_report(target)
        except (ConfigError, json.JSONDecodeError, OSError) as exc:
            print(f"invalid report: {exc}", file=sys.stderr)
            return getattr(exc, "code", EXIT_CONFIG)
        passed = doc["summary"]["passed"]
        verdict = "n/a (CSV tables carry no verdict)" if passed is None else passed
        print(f"valid kolmoflow report: subcommand="
              f"{doc['envelope']['config'].get('subcommand')!r}, passed={verdict}")
        return EXIT_OK

    try:
        seed = args.seed or 0
        if not 0 <= seed < 2**64:
            raise ConfigError(f"--seed must lie in [0, 2**64), got {seed}")
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config file {args.config} does not exist")
            values = parse_config(args.config.read_text(), args.subcommand)
        else:
            values = parse_config("", args.subcommand)
        return run_subcommand(RunConfig(subcommand=args.subcommand, values=values,
                                        out_dir=args.out, seed=seed))
    except (ConfigError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
