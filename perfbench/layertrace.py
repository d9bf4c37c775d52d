"""Per-layer tracing of kolmoflow, installed from outside the package.

`Tracer.install()` replaces the public functions of each kolmoflow module
with timing wrappers, in every module namespace that holds a reference to
them (the modules import each other's functions by name). A span records
its duration and the part of it covered by nested spans; the difference is
the span's self time. Time covered by no span is the benchmark's own
orchestration. Counts that show solver and cache behaviour are taken at the
same boundaries.

Layer of a span = the text of its name before the first dot.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

import kolmoflow.dns as dns
import kolmoflow.evolution as evolution
import kolmoflow.pseudospectra as pseudospectra
import kolmoflow.spectral as spectral
import kolmoflow.waveop as waveop

MODULES = (spectral, pseudospectra, evolution, waveop, dns)
LAYERS = ("spectral", "pseudospectra", "evolution", "waveop", "dns")

# span name -> public functions it covers (module-level functions by name)
FUNCTION_SPANS = {
    "spectral.assemble": (spectral, ("build_grid", "assemble_N_lambda", "assemble_L_lambda",
                                     "assemble_mode_operators", "assemble_L1",
                                     "helmholtz_inverse", "mean_projections")),
    "pseudospectra.sigma_min": (pseudospectra, ("smallest_singular_value",)),
    "pseudospectra.psi": (pseudospectra, ("compute_psi",)),
    "pseudospectra.sweep": (pseudospectra, ("psi_for_params", "psi_bound_sweep",
                                            "resolvent_bound_sweep", "pseudospectrum_grid")),
    "evolution.propagator": (evolution, ("propagator",)),
    "evolution.evolve_coupled": (evolution, ("evolve_coupled",)),
    "evolution.semigroup": (evolution, ("semigroup_norm_curve",)),
    "evolution.alpha1_suite": (evolution, ("alpha1_suite",)),
    "evolution.forced_decay": (evolution, ("forced_decay",)),
    "evolution.other": (evolution, ("operator_norm", "coupled_generators", "fit_decay_rate",
                                    "energy_identity_residual", "solve_L1",
                                    "alpha1_generator")),
    "waveop.get": (waveop, ("get_wave_operator",)),
    "waveop.other": (waveop, ("intertwining_residual", "bound_sweep", "good_unknown_check",
                              "fill_masked", "fd_derivative", "helmholtz_inverse_full",
                              "spectral_second_derivative", "random_smooth_profile")),
    "dns.step": (dns, ("step_imex",)),
    "dns.other": (dns, ("init_perturbation", "run_simulation", "run_threshold_sweep")),
}

# span name -> (class, method name)
METHOD_SPANS = {
    "spectral.dense": (spectral.OperatorMatrix, "dense"),
    "waveop.build": (waveop.WaveOperator, "__init__"),
    "waveop.apply_D1": (waveop.WaveOperator, "apply_D1"),
    "dns.frame": (dns.DiagnosticsTracker, "frame"),
}

FALLBACK_TEXT = "falling back to dense"


def clock() -> float:
    return time.perf_counter()


def tail_value(samples: list[float]) -> float:
    """The highest percentile with ten samples beyond it: the sample with
    ten above it. Below 21 samples that sample would not lie above the
    median, so the maximum stands in for it."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def median(samples: list[float]) -> float:
    return float(np.median(samples)) if samples else 0.0


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [name, time covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.covered_s = 0.0                 # time inside top-level spans

    # -- recording -------------------------------------------------------
    def _count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _close(self, name: str, frame: list, dt: float, bucket: str | None) -> None:
        self.stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - frame[1]
        self.durations.setdefault(name, []).append(dt)
        if bucket is not None:
            self.durations.setdefault(bucket, []).append(dt)
        if self.stack:
            self.stack[-1][1] += dt
        else:
            self.covered_s += dt

    def _wrap(self, name: str, fn, hook=None):
        """Timing wrapper; `hook(args, kwargs)` runs before the call and may
        return (bucket, after) where after(result) runs once it returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            bucket, after = hook(args, kwargs) if hook else (None, None)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, clock() - t0, bucket)
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts observed at the layer boundaries ------------------
    def _sigma_hook(self, args, kwargs):
        op = args[0]
        metric = args[2] if len(args) > 2 else kwargs.get("metric")
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        n = op.n
        if metric is not None and metric.keep is not None:
            n = int(np.count_nonzero(metric.keep))
        dense = method == "dense" or (method == "auto" and n <= pseudospectra.DENSE_SVD_MAX)
        self._count("sigma.dense" if dense else "sigma.banded")
        if any(f[0] == "pseudospectra.psi" for f in self.stack):
            self._count("sigma.in_psi")
        return None, None

    def _sigma_call(self, fn):
        """smallest_singular_value with its fallback warnings recorded."""
        tracer = self

        def call(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            tracer._count("sigma.fallbacks",
                          sum(FALLBACK_TEXT in str(w.message) for w in caught))
            return result

        call.__name__ = fn.__name__
        return call

    def _propagator_hook(self, args, kwargs):
        op = args[0]
        t = args[1] if len(args) > 1 else kwargs["t"]
        cap = args[2] if len(args) > 2 else kwargs.get("norm_cap", 200.0)
        if isinstance(op, spectral.OperatorMatrix):
            col = np.zeros(op.n)
            for k, v in op.diags.items():
                j = np.arange(op.n - abs(k))
                col[j + k if k >= 0 else j] += np.abs(v)
            norm1 = float(col.max())
        else:
            norm1 = float(np.linalg.norm(np.asarray(op), 1))
        if t * norm1 > cap:
            self._count("propagator.chunked")
        return None, None

    def _build_hook(self, args, kwargs):
        # args = (self, alpha, n, margin, _defer); deferred builds load a table
        if kwargs.get("_defer") or (len(args) > 4 and args[4]):
            return None, None
        op = args[0]

        def after(_):
            self._count("waveop.cnodes", len(op.y_c))

        return None, after

    def _step_hook(self, args, kwargs):
        return f"dns.step.n{args[0].config.n[0]}", None

    def _run_simulation_hook(self, args, kwargs):
        cfg = args[0] if args else kwargs["config"]
        steps_before = self.calls.get("dns.step", 0)
        horizon = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))

        def after(_):
            if self.calls.get("dns.step", 0) - steps_before < horizon:
                self._count("dns.early_exits")

        return None, after

    # -- install -----------------------------------------------------------
    def install(self) -> None:
        """Patch the package for the rest of this process."""
        hooks = {
            "smallest_singular_value": self._sigma_hook,
            "propagator": self._propagator_hook,
            "step_imex": self._step_hook,
            "run_simulation": self._run_simulation_hook,
        }
        for name, (module, fnames) in FUNCTION_SPANS.items():
            for fname in fnames:
                original = getattr(module, fname)
                inner = self._sigma_call(original) if fname == "smallest_singular_value" else original
                wrapped = self._wrap(name, inner, hooks.get(fname))
                for mod in MODULES:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)
        for name, (cls, meth) in METHOD_SPANS.items():
            hook = self._build_hook if name == "waveop.build" else None
            setattr(cls, meth, self._wrap(name, cls.__dict__[meth], hook))

    # -- results ---------------------------------------------------------
    def metrics(self, wall_s: float, max_rel_err: float) -> dict[str, float]:
        """Per-layer metrics of one traced job of wall time `wall_s`."""
        calls, self_s, dur, cnt = self.calls, self.self_s, self.durations, self.counts

        def c(name):
            return float(calls.get(name, 0))

        def s(name):
            return float(self_s.get(name, 0.0))

        def ms(values):
            return [1e3 * v for v in values]

        builds = c("waveop.build")
        gets = c("waveop.get")
        psi_calls = c("pseudospectra.psi")
        out = {
            "spectral.assemble.calls": c("spectral.assemble"),
            "spectral.assemble.self_s": s("spectral.assemble"),
            "spectral.dense.calls": c("spectral.dense"),
            "spectral.dense.self_s": s("spectral.dense"),
            "pseudospectra.sigma_min.calls": c("pseudospectra.sigma_min"),
            "pseudospectra.sigma_min.self_s": s("pseudospectra.sigma_min"),
            "pseudospectra.sigma_min.dense_calls": float(cnt.get("sigma.dense", 0)),
            "pseudospectra.sigma_min.banded_calls": float(cnt.get("sigma.banded", 0)),
            "pseudospectra.sigma_min.fallbacks": float(cnt.get("sigma.fallbacks", 0)),
            "pseudospectra.sigma_min.p50_ms": median(ms(dur.get("pseudospectra.sigma_min", []))),
            "pseudospectra.sigma_min.tail_ms": tail_value(ms(dur.get("pseudospectra.sigma_min", []))),
            "pseudospectra.sigma_min.max_ms": max(ms(dur.get("pseudospectra.sigma_min", [])),
                                                  default=0.0),
            "pseudospectra.sigma_min.max_rel_err": float(max_rel_err),
            "pseudospectra.psi.calls": psi_calls,
            "pseudospectra.psi.self_s": s("pseudospectra.psi"),
            "pseudospectra.psi.sigma_per_psi":
                float(cnt.get("sigma.in_psi", 0)) / psi_calls if psi_calls else 0.0,
            "evolution.propagator.calls": c("evolution.propagator"),
            "evolution.propagator.self_s": s("evolution.propagator"),
            "evolution.propagator.chunked": float(cnt.get("propagator.chunked", 0)),
            "evolution.evolve_coupled.self_s": s("evolution.evolve_coupled"),
            "evolution.semigroup.self_s": s("evolution.semigroup"),
            "evolution.alpha1_suite.self_s": s("evolution.alpha1_suite"),
            "evolution.forced_decay.self_s": s("evolution.forced_decay"),
            "waveop.build.calls": builds,
            "waveop.build.self_s": s("waveop.build"),
            "waveop.build.ms_per_cnode": (1e3 * s("waveop.build") / cnt["waveop.cnodes"]
                                          if cnt.get("waveop.cnodes") else 0.0),
            "waveop.cache.hit_ratio": (gets - builds) / gets if gets else 0.0,
            "waveop.apply_D1.calls": c("waveop.apply_D1"),
            "waveop.apply_D1.self_s": s("waveop.apply_D1"),
            "waveop.apply_D1.p50_ms": median(ms(dur.get("waveop.apply_D1", []))),
            "waveop.apply_D1.tail_ms": tail_value(ms(dur.get("waveop.apply_D1", []))),
            "dns.step.calls": c("dns.step"),
            "dns.step.self_s": s("dns.step"),
            "dns.step.p50_ms.n16": median(ms(dur.get("dns.step.n16", []))),
            "dns.step.p50_ms.n32": median(ms(dur.get("dns.step.n32", []))),
            "dns.step.tail_ms": tail_value(ms(dur.get("dns.step", []))),
            "dns.frame.calls": c("dns.frame"),
            "dns.frame.self_s": s("dns.frame"),
            "dns.frame.p50_ms": median(ms(dur.get("dns.frame", []))),
            "dns.early_exits": float(cnt.get("dns.early_exits", 0)),
        }
        orchestration = wall_s - self.covered_s
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = float(total)
            out[f"{layer}.share"] = float(total / wall_s) if wall_s > 0 else 0.0
        out["orchestration.self_s"] = float(orchestration)
        out["orchestration.share"] = float(orchestration / wall_s) if wall_s > 0 else 0.0
        return out
