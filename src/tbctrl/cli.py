"""Command-line front end: list-models, simulate, optimize, sweep, verify.

Emits trajectory and report data as CSV/JSON for external plotting; no
rendering here. Exit statuses: see the table in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .core import NonFiniteError, Trajectory, ValidationError, check_count
from . import models
from .costs import total_cost
from .models import ModelId
from .pmp import DEFAULT_SEED, _uniforms, verify_adjoint_consistency, verify_control_stationarity
from .scenario import ScenarioConfig, builtin_scenario_names, find_scenario, sweep_points
from .solver import integrate_forward, solve_fbs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

_MAX_CONTROL_DURATION_LEVEL = 0.99


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    """The header, then one line per row of the 2-D float array ``rows``.

    Each value is written as ``_fmt`` writes it, in csv.writer's layout: comma
    separated, no quoting (no formatted number needs it), CRLF line ends.
    """
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        f.writelines(line % tuple(row.tolist()) for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _write_trajectory(path: Path, config: ScenarioConfig, traj: Trajectory) -> None:
    d = models.model_definition(config.model)
    header = ["t", *d.state_labels, *d.control_labels, "N"]
    columns = [traj.grid.nodes, traj.state, traj.control, traj.state.sum(axis=1)]
    if traj.adjoint is not None:
        header.extend(f"lambda_{lbl}" for lbl in d.state_labels)
        columns.append(traj.adjoint)
    _write_csv(path, header, np.column_stack(columns))


def _simulate(config: ScenarioConfig, control: np.ndarray) -> Trajectory:
    state = integrate_forward(config.model, config.params, config.initial_state(),
                              control, config.grid)
    return Trajectory(config.grid, state, control)


def _infectious_fraction(config: ScenarioConfig, traj: Trajectory) -> np.ndarray:
    d = models.model_definition(config.model)
    inf = traj.state @ np.array(d.infectious)
    return inf / traj.state.sum(axis=1)


def cmd_list_models(args) -> int:
    for mid in ModelId:
        d = models.model_definition(mid)
        print(f"{mid.value:22s} states={d.state_dim} ({', '.join(d.state_labels)}); "
              f"controls={d.control_dim} ({', '.join(d.control_labels)}); {d.description}")
    return EXIT_OK


def _parse_control_mode(mode: str, config: ScenarioConfig) -> np.ndarray:
    d = models.model_definition(config.model)
    n_nodes = config.grid.n_nodes
    if mode == "off":
        return np.zeros((n_nodes, d.control_dim))
    path = Path(mode)
    if path.exists():
        # control file: columns t, u1[, u2, ...]; linear interpolation onto the grid
        if not path.read_bytes().strip():  # genfromtxt would warn, then fail on its own
            raise ValidationError(f"control file {path} is not a CSV table: it has no header line")
        try:
            data = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        except (ValueError, IndexError) as exc:  # a row longer than the header
            raise ValidationError(f"control file {path} is not a CSV table: {exc}") from None
        names = list(data.dtype.names)
        if names != ["t", *d.control_labels]:
            raise ValidationError(
                f"control file must have columns t,{','.join(d.control_labels)}")
        t, *columns = (np.asarray(data[name], dtype=float) for name in names)
        if t.size == 0:
            raise ValidationError(f"control file {path} has no data rows")
        if not all(np.isfinite(c).all() for c in (t, *columns)):
            raise ValidationError(f"control file {path} holds a missing or non-finite value")
        if np.any(t[1:] <= t[:-1]):
            raise ValidationError(f"control file {path}: t must be strictly increasing")
        out = np.empty((n_nodes, d.control_dim))
        for k, c in enumerate(columns):
            out[:, k] = np.interp(config.grid.nodes, t, c)
    else:
        try:
            values = [float(v) for v in mode.split(",")]
        except ValueError:
            raise ValidationError(
                f"control mode {mode!r} is neither 'off', a constant, nor a readable file") from None
        if not np.isfinite(values).all():
            raise ValidationError(f"control constant {mode!r} holds a non-finite value")
        if len(values) == 1 and d.control_dim > 1:
            values = values * d.control_dim
        if len(values) != d.control_dim:
            raise ValidationError(f"expected {d.control_dim} constant control value(s), got {len(values)}")
        out = np.tile(np.array(values), (n_nodes, 1))
    return np.clip(out, config.weights.lower, config.weights.upper)


def _with_grid(config: ScenarioConfig, args) -> ScenarioConfig:
    if args.n_steps is None:
        return config
    return replace(config, grid=type(config.grid)(config.grid.t0, config.grid.tf, args.n_steps))


def _apply_cli_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    fbs = config.fbs
    if args.tolerance is not None:
        fbs = replace(fbs, tolerance=args.tolerance)
    if args.max_iterations is not None:
        fbs = replace(fbs, max_iterations=args.max_iterations)
    return replace(_with_grid(config, args), fbs=fbs)


def cmd_simulate(args) -> int:
    config = _with_grid(find_scenario(args.scenario), args)
    control = _parse_control_mode(args.control, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = _simulate(config, control)
    cost = total_cost(config.model, traj, config.weights)
    _write_trajectory(out / "trajectory.csv", config, traj)
    d = models.model_definition(config.model)
    _write_json(out / "summary.json", {
        "scenario": config.name,
        "model": config.model.value,
        "cost": cost,
        "terminal_time": config.grid.tf,
        "terminal_state": {lbl: traj.state[-1, i] for i, lbl in enumerate(d.state_labels)},
        "terminal_population": float(traj.state[-1].sum()),
    })
    print(f"simulate: wrote {out / 'trajectory.csv'} (cost={cost:.6g})")
    return EXIT_OK


def _optimize_into(config: ScenarioConfig, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    solution = solve_fbs(config)
    d = models.model_definition(config.model)
    baseline = _simulate(config, np.zeros((config.grid.n_nodes, d.control_dim)))
    baseline_cost = total_cost(config.model, baseline, config.weights)
    _write_trajectory(out / "trajectory.csv", config, solution.trajectory)
    _write_trajectory(out / "baseline.csv", config, baseline)
    _write_csv(out / "control.csv", ["t", *d.control_labels],
               np.column_stack([config.grid.nodes, solution.trajectory.control]))
    report = solution.report
    u = solution.trajectory.control
    duration = config.grid.h * int(np.sum(np.all(u > _MAX_CONTROL_DURATION_LEVEL, axis=1)))
    frac = _infectious_fraction(config, solution.trajectory)
    payload = {
        "scenario": config.name,
        "model": config.model.value,
        "converged": report.converged,
        "iterations": report.iterations,
        "cost": solution.cost,
        "baseline_cost": baseline_cost,
        "final_control_change": report.final_control_change,
        "cost_history": list(report.cost_history),
        "duration_u_above_0.99": duration,
        "terminal_infectious_fraction": float(frac[-1]),
        "state_nonnegative": solution.trajectory.state_nonnegative,
        "message": report.message,
    }
    _write_json(out / "report.json", payload)
    return payload


def cmd_optimize(args) -> int:
    config = _apply_cli_overrides(find_scenario(args.scenario), args)
    payload = _optimize_into(config, Path(args.out_dir))
    status = "converged" if payload["converged"] else "NOT converged"
    print(f"optimize: {config.name}: {status} in {payload['iterations']} iterations, "
          f"cost={payload['cost']:.6g} (baseline {payload['baseline_cost']:.6g})")
    return EXIT_OK if payload["converged"] else EXIT_NONCONVERGED


def _sweep_worker(item):
    label, config, out_dir = item
    try:
        payload = _optimize_into(config, Path(out_dir))
        return label, payload, None
    except (ValidationError, NonFiniteError) as exc:  # per-value failures recorded
        return label, None, str(exc)


def _fork_sweep_child(tasks: list, r: int, jobs: int):
    """Fork a child that solves tasks r, r + jobs, ...; return its pid and its pipe's read end.

    The child sends ("ok", results) or ("raised", exception) pickled over the
    pipe and leaves by os._exit, so it never flushes stdio buffers inherited
    from this process or runs its atexit handlers. A message it cannot pickle
    leaves the pipe empty, and its traceback goes straight to descriptor 2.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(wfd)
        return pid, os.fdopen(rfd, "rb")
    try:
        try:
            message = ("ok", [_sweep_worker(t) for t in tasks[r::jobs]])
        except BaseException as exc:  # re-raised by the parent
            message = ("raised", exc)
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(pickle.dumps(message))
        os._exit(0)
    except BaseException:
        import traceback  # here: see the import of signal in _run_sweep
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(1)


def _run_sweep(tasks: list, jobs: int) -> list:
    """_sweep_worker over tasks, in task order, by this process and jobs - 1 forked children.

    This process solves tasks 0, jobs, 2·jobs, ... and child r tasks r,
    r + jobs, ...; an exception raised in a child is re-raised here. Every
    child is waited for before this returns or raises, and is killed first
    if this process fails, so none outlives the command.
    """
    children = []
    try:
        for r in range(1, jobs):
            children.append((r, *_fork_sweep_child(tasks, r, jobs)))
        results = [None] * len(tasks)
        results[0::jobs] = [_sweep_worker(t) for t in tasks[0::jobs]]
        while children:
            r, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            children.pop(0)  # it closed its end, so it is exiting
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:  # 0 only after the whole message is written
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"sweep child {r} (pid {pid}) {how} "
                                        "before sending its results")
            kind, value = pickle.loads(data)
            if kind == "raised":
                raise value
            results[r::jobs] = value
        return results
    finally:
        for _, pid, pipe in children:  # left only if this process failed
            import signal  # here, as traceback: the two add about 4 ms to every command's import
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    check_count("--jobs", args.jobs, 1)
    if args.jobs > 1 and not hasattr(os, "fork"):
        raise ValidationError("--jobs above 1 needs os.fork, which this platform lacks")
    config = _apply_cli_overrides(find_scenario(args.scenario), args)
    points = sweep_points(config)  # refuses a scenario without a sweep
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(label, sub, out / f"value-{i:02d}") for i, (label, sub) in enumerate(points)]
    results = _run_sweep(tasks, min(args.jobs, len(tasks)))

    rows = []
    any_error = False
    any_nonconverged = False
    for label, payload, err in results:
        if err is not None:
            any_error = True
            rows.append([label, "", "", "", f"error: {err}"])
            continue
        if not payload["converged"]:
            any_nonconverged = True
        rows.append([label, _fmt(payload["cost"]), _fmt(payload["duration_u_above_0.99"]),
                     _fmt(payload["terminal_infectious_fraction"]),
                     "ok" if payload["converged"] else "non-converged"])
    with open(out / "sweep_summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["value", "cost", "duration_u_above_0.99",
                         "terminal_infectious_fraction", "status"])
        writer.writerows(rows)
    print(f"sweep: {len(results)} value(s); summary at {out / 'sweep_summary.csv'}")
    for label, payload, err in results:
        if err is not None:
            print(f"  {label}: FAILED: {err}")
        else:
            print(f"  {label}: cost={payload['cost']:.6g} "
                  f"duration(u>0.99)={payload['duration_u_above_0.99']:.4g}")
    if any_error:
        return EXIT_VALIDATION
    return EXIT_NONCONVERGED if any_nonconverged else EXIT_OK


def _reduction_residual(mid: ModelId, seed: int) -> float:
    """Largest |f(x, u0) - f0(x)| over 200 seeded states, NaN if any difference is.

    f is the model's right-hand side at its neutral control u0 and f0 the
    uncontrolled baseline, both at t = 0.3 with the default parameters; the
    states are drawn uniformly on [1, 1e4). Each side is one call on (200,)
    columns.
    """
    d = models.model_definition(mid)
    p = models.default_params(mid)
    x = 1.0 + 9999.0 * _uniforms(seed, 200, d.state_dim)
    a = d.rhs(0.3, x, models.neutral_control(mid).tolist(), p.values(d.required_params, 0.3))
    b = models.uncontrolled_rhs(mid, 0.3, x, p)
    # broadcast: an entry of a may be a scalar; np.max, unlike max(), keeps a NaN
    return float(np.max(np.abs(np.array(np.broadcast_arrays(*a)) - b)))


def cmd_verify(args) -> int:
    targets = list(ModelId) if args.model == "all" else [models.model_definition(args.model).id]
    failed = False
    for mid in targets:
        adj = verify_adjoint_consistency(mid, samples=args.samples, seed=args.seed)
        stat = verify_control_stationarity(mid, samples=args.samples, seed=args.seed)
        red_note = ""
        red_ok = True
        if models.has_baseline(mid):
            worst = _reduction_residual(mid, args.seed)
            red_ok = worst == 0.0
            red_note = f" reduction={'exact' if red_ok else f'MISMATCH ({worst:g})'}"
        adj_ok = adj.max_adjoint_residual < 1e-12
        stat_ok = stat.max_stationarity_residual < 1e-10
        ok = adj_ok and stat_ok and red_ok
        failed |= not ok
        print(f"{mid.value:22s} adjoint={adj.max_adjoint_residual:.3e} "
              f"stationarity={stat.max_stationarity_residual:.3e}{red_note} "
              f"[{'ok' if ok else 'FAIL'}]")
    return EXIT_VALIDATION if failed else EXIT_OK


@cache  # once per process: each build keeps about 1.4 KiB resident
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbctrl",
        description="Optimal control of TB transmission models (forward-backward sweep).",
        epilog=("Scenario references are file paths, names under $TBCTRL_SCENARIO_DIR, "
                f"or bundled scenarios: {', '.join(builtin_scenario_names())}"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list the model catalog")

    def add_common(sp):
        sp.add_argument("scenario", help="scenario file or bundled name")
        sp.add_argument("--out-dir", "-o", required=True, help="output directory")
        sp.add_argument("--n-steps", type=int, help="override grid resolution")

    def add_solver(sp):
        add_common(sp)
        sp.add_argument("--tolerance", type=float, help="override sweep tolerance")
        sp.add_argument("--max-iterations", type=int, help="override iteration cap")

    sp = sub.add_parser("simulate", help="integrate the state under a fixed control")
    add_common(sp)
    sp.add_argument("--control", default="off",
                    help="'off', constant value(s) 'v' or 'v1,v2', or a CSV file t,u...")

    sp = sub.add_parser("optimize", help="solve the optimal control problem")
    add_solver(sp)

    sp = sub.add_parser("sweep", help="optimize across the scenario's sweep values")
    add_solver(sp)
    sp.add_argument("--jobs", "-j", type=int, default=1,
                    help="processes solving sweep points, this one included")

    sp = sub.add_parser("verify", help="adjoint/control-law consistency checks")
    sp.add_argument("model", nargs="?", default="all",
                    help="model id or 'all'")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list-models": cmd_list_models,
        "simulate": cmd_simulate,
        "optimize": cmd_optimize,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
