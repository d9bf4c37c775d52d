#!/usr/bin/env python3
"""Digest of every deterministic output byte, for comparing two checkouts.

    python3 tools/payload_digest.py [RUN ...] [--acceptance]

Each run is one CLI subcommand on a small fixed configuration, the one
tests/test_cli.py uses where it has one, with seed 0. A run is named after
its subcommand, with a suffix where one subcommand has several runs: `psi`,
`psi-L` and `psi-Q1L` cover the three operator selectors, `psi-Q1L-1024`
restricts ModeL to n != 0 at a size where a dense detour would cost
16 MiB per copy,
`resolvent-sweep-L` and `resolvent-sweep-Lu` the two nonlocal sweep kinds
(`Llambda` and `Lu-form`, beta = 2) next to the `Nlambda` run, and
`dns-eps` and `threshold-eps` step a nonzero perturbation where `dns` and
`threshold` start from the base flow itself, and `waveop-9.1` sweeps the
bounds at alpha = 9.1, whose grid max(256, 32 alpha) = 291.2 is rounded up
to 292, the next multiple of 4. The script makes
the named runs (all of them by default) and prints one `name sha256` line
per report payload section (canonical JSON, as `cli.payload_bytes` writes
it) and per CSV body (the table without its envelope line). The envelope is
left out: it holds the timestamp. `--acceptance` adds three lines per
criterion of `acceptance.ALL_CRITERIA`: its verdict, its `details` record,
and its `bounds`, the (name, op, bound) triple of every sub-check in
`details["checks"]`, so a changed comparison or bound shows on its own line.
That takes a few minutes.

`cli.main` and every criterion run in `spectral.one_blas_thread()`, so the
output does not depend on `OPENBLAS_NUM_THREADS`.

The script imports kolmoflow from the `src/` directory of the checkout it
sits in, so a copy of it in another checkout digests that checkout:

    diff <(python3 tools/payload_digest.py) <(python3 ../other/tools/payload_digest.py)

Progress and timings go to standard error; standard output holds only the
digest lines, in a fixed order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kolmoflow import acceptance, cli  # noqa: E402

# run name -> (subcommand, configuration)
RUNS = {
    "psi": ("psi", "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 0\nk_f = 1\nn = 128\n"),
    "psi-L": ("psi", "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 1\nk_f = 0.5\nn = 128\n"
                     "operator = L\n"),
    "psi-Q1L": ("psi", "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 0\nk_f = 1\nn = 128\n"
                       "operator = Q1L\n"),
    "psi-Q1L-1024": ("psi", "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 0\nk_f = 1\nn = 1024\n"
                            "operator = Q1L\nscan_count = 16\n"),
    "resolvent-sweep": ("resolvent-sweep",
                        "kind = Nlambda\nnu = 0.01\nalpha = 10, 100\nlambda = 0, 0.75\n"),
    "resolvent-sweep-L": ("resolvent-sweep",
                          "kind = Llambda\nnu = 0.01\nalpha = 10, 100\nlambda = 0, 0.75\n"
                          "beta = 2\n"),
    "resolvent-sweep-Lu": ("resolvent-sweep",
                           "kind = Lu-form\nnu = 0.01\nalpha = 10, 100\nlambda = 0, 0.75\n"
                           "beta = 2\n"),
    "evolve": ("evolve", "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 1\nk_f = 0.5\nn = 48\n"
                         "t_end = 12\ndt = 0.1\n"),
    "alpha1": ("alpha1", "nu = 0.01\ngamma = 0.1, 0.4\nn = 64\n"),
    "waveop": ("waveop", "alpha = 2\nlevels = 64, 128\n"),
    "waveop-9.1": ("waveop", "alpha = 9.1\nlevels = 64\n"),
    "dns": ("dns", "nu = 0.05\ngamma = 0.05\nk_f = 0.5\nn = 16\nepsilon = 0\nt_end = 1\n"),
    "dns-eps": ("dns", "nu = 0.05\ngamma = 0.05\nk_f = 0.5\nn = 16\nepsilon = 1e-3\n"
                       "t_end = 1\n"),
    "threshold": ("threshold", "nu = 0.1, 0.05\nepsilon = 0\nk_f = 0.5\nn = 16\n"),
    "threshold-eps": ("threshold", "nu = 0.4, 0.2\nepsilon = 0, 0.001\nk_f = 0.5\nn = 16\n"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(run: str, workdir: Path) -> list[tuple[str, str]]:
    """(name, digest) of the payload section and of every CSV body that
    `run` writes, each name prefixed with the run's."""
    sub, config = RUNS[run]
    cfgfile = workdir / f"{run}.cfg"
    cfgfile.write_text(config)
    out = workdir / run
    code = cli.main([sub, "--config", str(cfgfile), "--out", str(out)])
    lines = [(f"{run}.exit", sha256(str(code).encode()))]
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            body = text.split("\n", 1)[1]
            lines.append((f"{run}.{path.name}", sha256(body.encode())))
        else:
            doc = cli.check_report(path)
            lines.append((f"{run}.{path.name}.payload",
                          sha256(cli.payload_bytes(doc["payload"]))))
            lines.append((f"{run}.{path.name}.summary",
                          sha256(cli.payload_bytes(doc["summary"]))))
    return lines


def acceptance_digests() -> list[tuple[str, str]]:
    lines = []
    for i, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            rec = fn()
        print(f"criterion {i}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        lines.append((f"acceptance.{i}.passed", sha256(str(rec["passed"]).encode())))
        lines.append((f"acceptance.{i}.details", sha256(cli.payload_bytes(rec["details"]))))
        bounds = [(c["name"], c["op"], c["bound"]) for c in rec["details"]["checks"]]
        lines.append((f"acceptance.{i}.bounds", sha256(cli.payload_bytes(bounds))))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("runs", nargs="*", metavar="RUN",
                    help=f"runs to make (default: all of {', '.join(RUNS)})")
    ap.add_argument("--acceptance", action="store_true",
                    help="also digest the details of every acceptance criterion")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.runs) - set(RUNS))
    if unknown:
        ap.error(f"unknown run(s): {', '.join(unknown)}")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in args.runs or RUNS:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                lines += run_digests(run, Path(tmp))
            print(f"{run}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if args.acceptance:
        lines += acceptance_digests()
    for name, digest in lines:
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
