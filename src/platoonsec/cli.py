"""Command-line front end.

Five subcommands: ``simulate`` (one scenario -> trace/metrics/plot data),
``stability`` (certificate report for the configured gains), ``game``
(equilibria of the configured attacker/defender game), ``string-check``
(frequency/impulse criteria for one controller), and ``sweep`` (attack
magnitude x safety threshold grid, collision rates, in parallel).

``simulate`` and ``sweep`` need ``--config``; the others read
``_DEFAULT_SCENARIO`` without it.

Exit codes are a stable contract: 0 ok, 1 input error (a bad scenario file
or command line, or gains whose closed loop is not Hurwitz, in every
subcommand), 2 domain outcome (collision, failed or missing certificate, a
state that diverges to non-finite values, string-stability violation,
equilibrium gap above tolerance).  All outputs land under
``--out`` (or $PLATOONSEC_OUT, or the working directory); reruns with the
same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, load_scenario
from .control import ACC, CACC, assemble_closed_loop
from .engine import (CertificateError, ScenarioConfig, resolve_certificate, run_scenario,
                     trace_metrics, usable_cpus, write_metrics_json, write_trace_csv)
from .game import best_response_gap, solve_nash, to_behavioral, to_normal_form
from .platoon import PlatoonConfig
from .stability import (TransferFunction, check_bibo_lemma1, check_gues_inequalities,
                        hinf_norm, impulse_response_nonneg, min_dwell_time,
                        spacing_error_tf)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OUTCOME = 2

_OUT_ENV = "PLATOONSEC_OUT"

# the scenario of ``stability``, ``game`` and ``string-check`` without
# --config: the crash configs' platoon, with the package's default gains,
# certificate search and game
_DEFAULT_SCENARIO = ScenarioConfig(PlatoonConfig(vehicle_count=4, desired_gap=10.0,
                                                 vehicle_length=4.5, epsilon_max=4.0))


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _poly_str(coeffs) -> str:
    terms = []
    deg = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        if c == 0 and len(coeffs) > 1:
            continue
        p = deg - k
        mag = _fmt(abs(c))
        sign = "-" if c < 0 else ("+" if terms else "")
        if p == 0:
            body = mag
        elif p == 1:
            body = f"{mag} s" if abs(c) != 1 else "s"
        else:
            body = f"{mag} s^{p}" if abs(c) != 1 else f"s^{p}"
        terms.append(f"{sign} {body}".strip() if sign else body)
    return " ".join(terms) if terms else "0"


def finite(text: str) -> float:
    """A float flag's value: nan and inf parse as floats but mean no number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def tolerance(text: str) -> float:
    """A ``--tol`` value: finite and not below 0, where every verdict
    would read as failed."""
    value = finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a tolerance >= 0, got {text!r}")
    return value


def _load(args: argparse.Namespace, default: ScenarioConfig | None = _DEFAULT_SCENARIO):
    """The ``--config`` scenario, else ``default``; with neither, an input error."""
    config = default if args.config is None else load_scenario(args.config)
    if config is None:
        raise ConfigError("", "this subcommand needs --config <scenario.json>")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args, default=None)
    trace = run_scenario(config)
    metrics = trace_metrics(trace, tol=args.tol)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv", out / "spacing.dat", out / "velocity.dat")
    write_metrics_json(metrics, out / "metrics.json",
                       extra={"seed": config.seed, "duration": config.duration,
                              "step": config.step})

    if metrics.collision:
        print(f"collision: follower {trace.collision.follower} at "
              f"t={_fmt(trace.collision.time)} s (gap {_fmt(trace.collision.gap)} m)")
    else:
        print(f"no collision; min spacing {_fmt(metrics.min_spacing)} m, "
              f"sup spacing errors "
              f"[{', '.join(_fmt(s) for s in metrics.sup_spacing_errors)}] m")
    print(f"wrote {out / 'trace.csv'}, {out / 'metrics.json'}, "
          f"{out / 'spacing.dat'}, {out / 'velocity.dat'}")
    return EXIT_OUTCOME if metrics.collision else EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    config = _load(args)
    eps_ref = config.platoon.epsilon_max

    # the aggregates are the bottom rows of the two laws' A
    (k1, k2), (k3, k4) = (assemble_closed_loop(mode, gains)[1].tolist()
                          for mode, gains in ((CACC, config.cacc_gains),
                                              (ACC, config.acc_gains)))
    print(f"cooperative gains: k1={_fmt(k1)} k2={_fmt(k2)}  "
          f"radar gains: k3={_fmt(k3)} k4={_fmt(k4)}")
    for label, pair in (("cooperative", (k1, k2)), ("radar-only", (k3, k4))):
        print(f"  {label}: real-pole criterion={check_bibo_lemma1(*pair)['lemma1']}")

    P, report, consts = resolve_certificate(config)
    if P is None:
        print("no certificate found: no P of the searched region clears the 1e-9 margin")
        return EXIT_OUTCOME

    ineq = check_gues_inequalities(k1, k2, k3, k4, P)
    source = "searched" if config.lyapunov is None else "given"
    print(f"certificate P ({source}): p11={_fmt(P.p11)} p12={_fmt(P.p12)} "
          f"p22={_fmt(P.p22)}")
    print(f"  P eigenvalues: {_fmt(report.p_eigenvalues[0])}, "
          f"{_fmt(report.p_eigenvalues[1])}")
    print("  residual max eigenvalues: "
          + ", ".join(_fmt(e) for e in report.residual_max_eigenvalues))
    failed = ineq.violated
    if ineq.ill_posed:
        print(f"  ill-posed inequality brackets: {', '.join(sorted(ineq.ill_posed))}")
    if failed:
        print(f"  violated inequalities: {', '.join(failed)}")
    ok = report.passed and ineq.all_satisfied
    if ok:
        dwell = min_dwell_time((eps_ref, 0.0), consts)
        print(f"  envelope constants: a={_fmt(consts.a)} b={_fmt(consts.b)} "
              f"c={_fmt(consts.c)} rate={_fmt(consts.lam)}")
        print(f"  min dwell at |z|={_fmt(eps_ref)}: {_fmt(dwell)} s")
        print("verdict: certified")
        return EXIT_OK
    print("verdict: not certified")
    return EXIT_OUTCOME


def cmd_game(args: argparse.Namespace) -> int:
    spec = _load(args).game
    print(f"detector: P(report|attack)={_fmt(spec.p_report_given_attack)} "
          f"P(report|benign)={_fmt(spec.p_report_given_benign)}")
    equilibria = solve_nash(to_normal_form(spec))
    worst = 0.0
    for idx, eq in enumerate(equilibria, start=1):
        beh = to_behavioral(eq.defender, eq.p_attack)
        gap_a, gap_d = best_response_gap(spec, beh)
        worst = max(worst, float(gap_a), float(gap_d))
        tag = " (degenerate: a payoff tie)" if eq.degenerate else ""
        print(f"equilibrium {idx}{tag}:")
        print(f"  P(attack) = {eq.p_attack} = {_fmt(eq.p_attack)}")
        print(f"  P(downgrade | report) = {beh.defender_p_downgrade_given_r} "
              f"= {_fmt(beh.defender_p_downgrade_given_r)}")
        print(f"  P(downgrade | no report) = {beh.defender_p_downgrade_given_nr} "
              f"= {_fmt(beh.defender_p_downgrade_given_nr)}")
        print(f"  best-response gaps: attacker {_fmt(gap_a)}, defender {_fmt(gap_d)}")
    print(f"{len(equilibria)} equilibria; worst gap {_fmt(worst)} "
          f"(tolerance {_fmt(args.tol)})")
    return EXIT_OK if worst <= args.tol else EXIT_OUTCOME


def cmd_string_check(args: argparse.Namespace) -> int:
    num, den = args.num, args.den
    if num is not None or den is not None:
        if not num or not den:
            print("error: --num and --den must be given together", file=sys.stderr)
            return EXIT_INPUT
        H = TransferFunction(tuple(num), tuple(den))
        label = "fixture"
    else:
        mode, config = args.mode, _load(args)
        H = spacing_error_tf(mode, config.acc_gains if mode == ACC else config.cacc_gains)
        label = f"{mode} spacing-error propagation"
    print(f"H(s) [{label}] = ({_poly_str(H.num)}) / ({_poly_str(H.den)})")
    norm = hinf_norm(H)
    nonneg = impulse_response_nonneg(H)
    gain_ok = norm.value <= 1.0 + 1e-12
    print(f"  peak gain {_fmt(norm.value)} at omega={_fmt(norm.omega)} rad/s "
          f"-> {'<= 1' if gain_ok else '> 1'}")
    print(f"  impulse response nonnegative: {nonneg}")
    verdict = gain_ok and nonneg
    print(f"verdict: {'string stable' if verdict else 'not string stable'}")
    return EXIT_OK if verdict else EXIT_OUTCOME


def _sweep_cell(payload) -> tuple:
    """One grid cell's scenario and run count, in a worker process: returns
    (xi, eps, runs, collisions)."""
    cell, runs = payload
    collisions = 0
    for j in range(runs):
        if run_scenario(dataclasses.replace(cell, seed=cell.seed + j)).collision is not None:
            collisions += 1
    return cell.attack.xi_max, cell.platoon.epsilon_max, runs, collisions


def _grid(flag: str, values, build) -> list:
    """``build`` of each of ``values``; a value it rejects is an input error
    that names its flag."""
    built = []
    for value in values:
        try:
            built.append(build(value))
        except ValueError as exc:
            raise ValueError(f"{flag} {value!r}: {exc}") from None
    return built


def cmd_sweep(args: argparse.Namespace) -> int:
    for flag in ("runs", "jobs"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    base = _load(args, default=None)
    if base.attack is None:
        raise ConfigError("attack", "sweep varies the attack magnitude; the base "
                                    "scenario must define an attack")
    # every cell's attack and platoon are built before any cell runs
    attacks = _grid("--xi-grid", args.xi_grid, lambda xi: dataclasses.replace(
        base.attack, xi_max=xi, signal=dataclasses.replace(base.attack.signal, amplitude=xi)))
    platoons = _grid("--eps-grid", args.eps_grid,
                     lambda eps: dataclasses.replace(base.platoon, epsilon_max=eps))
    # the certificate depends on the gains alone: resolve it once for the grid
    P, _, _ = resolve_certificate(base)
    jobs = [(dataclasses.replace(base, lyapunov=P, attack=attack, platoon=platoon), args.runs)
            for attack in attacks for platoon in platoons]
    workers = min(len(jobs), args.jobs or usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweep needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, jobs))
    else:
        results = [_sweep_cell(j) for j in jobs]

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    rows = ["xi_max,epsilon_max,runs,collisions,collision_rate"]
    print(f"{'xi_max':>10} {'eps_max':>10} {'collisions':>11} {'rate':>8}")
    for xi, eps, nruns, hits in results:
        rate = hits / nruns
        rows.append(f"{repr(float(xi))},{repr(float(eps))},{nruns},{hits},{repr(rate)}")
        print(f"{_fmt(xi):>10} {_fmt(eps):>10} {hits:>6}/{nruns:<4} {rate:>8.3f}")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, not argparse's 2 (a domain outcome here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="platoonsec",
        description="Platoon simulation and certification under message falsification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, summary, tol=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--out", help=f"output directory (default ${_OUT_ENV} or .)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        if tol is not None:
            p.add_argument("--tol", type=tolerance, default=tol,
                           help=f"verdict tolerance (default {tol:g})")
        return p

    command("simulate", cmd_simulate, "run one scenario, write trace and metrics", 1e-6)
    command("stability", cmd_stability, "certificate report for the configured gains")
    command("game", cmd_game, "equilibria of the configured security game", 1e-9)

    p = command("string-check", cmd_string_check,
                "frequency/impulse string-stability check")
    p.add_argument("--mode", choices=[ACC, CACC], default=ACC,
                   help="which controller's propagation to check (default ACC)")
    p.add_argument("--num", type=finite, nargs="+",
                   help="explicit numerator coefficients, descending powers")
    p.add_argument("--den", type=finite, nargs="+",
                   help="explicit denominator coefficients, descending powers")

    p = command("sweep", cmd_sweep, "attack-magnitude x safety-threshold grid")
    p.add_argument("--xi-grid", type=finite, nargs="+", required=True,
                   help="attack magnitudes to sweep")
    p.add_argument("--eps-grid", type=finite, nargs="+", required=True,
                   help="safety thresholds to sweep")
    p.add_argument("--runs", type=int, default=20, help="runs per grid cell")
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.out = Path(args.out or os.environ.get(_OUT_ENV) or ".")
    try:
        return args.handler(args)
    except (CertificateError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTCOME
    except (FileNotFoundError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
