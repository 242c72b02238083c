"""Command-line front end for the simulator.

Five modes, one per layer of the stack plus a combined run:

  verify-qft   gate sequence vs the reference N-point transform
  wavepacket   dual-basis unitarity, packet cycling, dispersion overlap
  pulse        two-level pulse accuracy and full-band leakage sweep
  iontrap      composed conditional-phase gate fidelity
  full         all of the above

Settings come from built-in defaults, overlaid by an optional JSON config
file, overlaid by command-line flags. The report is JSON with sorted keys and
no timestamps, so identical inputs produce byte-identical output.

Exit status: 0 when every check in the chosen mode passed, 1 when a check
failed, 2 for unusable arguments or configuration.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import TextIO

import numpy as np

from .constants import EPS_FIDELITY, EPS_PULSE, EPS_TRAP_RESIDUAL, EPS_UNITARY
from .errors import ConfigurationError, ContractError
from .gates import verify_fft_equivalence
from .iontrap import (
    TrapParams, check_gate_qudits, check_gate_time, check_kepler_periods, check_multiplicity, verify_hybrid_gate
)
from .pulses import (
    PULSE_SHAPES,
    AtomState,
    PulseProfile,
    RabiCouplings,
    integrate_two_level,
    resonant_pulse_map,
    selectivity_sweep,
)
from .register import RegisterShape
from .wavepacket import (
    ENERGY,
    TRUNCATIONS,
    WAVEPACKET,
    AmplitudeVector,
    RydbergSpectrum,
    change_basis,
    dispersion_fidelity,
    free_evolve,
    wavepacket_basis_matrix,
)

REPORT_SCHEMA = 2

# Python types a config value may take, by the annotation of its RunConfig field.
_FIELD_KINDS = {"int": int, "float": (int, float), "float | None": (int, float, type(None))}


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI invocation."""

    mode: str = "verify-qft"
    d: int = 3
    q: int = 2
    seed: int = 1234
    tolerance: float = 1e-10
    n_samples: int = 256
    n_bar: float = 5.0
    truncation: str = "kepler"
    t_rev_ratio: float | None = None
    t_sr_ratio: float | None = None
    pulse_duration_ratio: float = 0.05
    pulse_area: float = math.pi
    pulse_shape: str = "square"
    control_index: int = 0
    target_index: int = 1
    multiplicity: int = 1
    kepler_periods: float = 2.0
    omega_ge: float = 50.0

    @property
    def trap_q(self) -> int:
        """Qudits of the iontrap register: q, widened to hold the target qudit."""
        return max(self.q, self.target_index + 1)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # abs(x) <= max also rejects a JSON integer too large for any float, not only inf and nan
            if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
            kind = _FIELD_KINDS.get(f.type)
            # bool is an int subclass, but true/false is no count or number
            if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                noun = "an integer" if f.type == "int" else "a number"
                raise ConfigurationError(f"{f.name} must be {noun}, got {json.dumps(value)}")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.d < 2:
            raise ConfigurationError(f"d must be at least 2, got {self.d}")
        if self.q < 1:
            raise ConfigurationError(f"q must be at least 1, got {self.q}")
        if self.n_samples < 1:
            raise ConfigurationError(f"n_samples must be at least 1, got {self.n_samples}")
        if self.tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tolerance}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.pulse_duration_ratio <= 0:
            raise ConfigurationError(
                f"pulse_duration_ratio must be positive, got {self.pulse_duration_ratio}"
            )
        if self.pulse_shape not in PULSE_SHAPES:
            raise ConfigurationError(
                f"pulse_shape must be one of {PULSE_SHAPES}, got {self.pulse_shape!r}"
            )
        # the spectrum, trap and register fields are checked in every mode, by the rules their layers apply
        try:
            spectrum = _spectrum_from(self)
            TrapParams(omega_ge=self.omega_ge)
            check_multiplicity(self.multiplicity, self.omega_ge)
            check_kepler_periods(self.kepler_periods)
            check_gate_time(spectrum, self.kepler_periods)  # a bound, so no schedule is built here
            check_gate_qudits(self.control_index, self.target_index, self.trap_q)
            RegisterShape(self.d, self.trap_q)  # trap_q >= q, so this caps the gate register too
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        # the pulse runner fires the chosen duration, and its sweep reaches down to T_K / (4 d) with T_K = 2π n̄³
        t_kepler = spectrum.t_kepler
        for name, duration in (("pulse_duration_ratio", self.pulse_duration_ratio * t_kepler),
                               ("n_bar", t_kepler / (4.0 * self.d))):
            try:
                PulseProfile(duration, self.pulse_area, self.pulse_shape)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{name} must be such that the pulses fired at pulse_area = {self.pulse_area} have a finite "
                    f"duration and drive, got "
                    f"pulse_duration_ratio {self.pulse_duration_ratio} and n_bar {self.n_bar} ({exc})") from exc


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    """Defaults, then JSON config file, then explicit flags."""
    values: dict = {}
    known = {f.name for f in fields(RunConfig)}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)
    values.update((key, val) for key, val in vars(args).items() if key in known and val is not None)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _spectrum_from(cfg: RunConfig) -> RydbergSpectrum:
    # the Kepler-only spectrum checks n̄ before its period scales the ratios, each named by its field
    t_kepler = RydbergSpectrum(cfg.n_bar, cfg.d).t_kepler
    times = {}
    for name in ("t_rev", "t_sr"):
        ratio = getattr(cfg, f"{name}_ratio")
        if ratio is not None:
            times[name] = ratio * t_kepler
            if not 0 < times[name] < math.inf:
                raise ConfigurationError(f"{name}_ratio must be positive, with {name}_ratio·T_K finite, got {ratio}")
    return RydbergSpectrum(n_bar=cfg.n_bar, d=cfg.d, truncation=cfg.truncation, **times)


def _run_qft(cfg: RunConfig) -> tuple[dict, bool, list[dict]]:
    shape = RegisterShape(cfg.d, cfg.q)
    report = verify_fft_equivalence(
        shape, tol=cfg.tolerance, seed=cfg.seed, n_samples=cfg.n_samples
    )
    results = asdict(report)
    return results, report.passed, [results]


def _run_wavepacket(cfg: RunConfig) -> tuple[dict, bool, list[dict]]:
    d = cfg.d
    u = wavepacket_basis_matrix(d)
    unitarity_err = float(np.abs(u.conj().T @ u - np.eye(d)).max())

    kepler = RydbergSpectrum(cfg.n_bar, d)
    slot_time = kepler.t_kepler / d
    rng = np.random.default_rng(cfg.seed)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    packet = AmplitudeVector(WAVEPACKET, amps / np.linalg.norm(amps))
    evolved = free_evolve(packet, kepler, np.arange(2 * d + 1) * slot_time)
    cycling_err = max(float(np.abs(v.amps - np.roll(packet.amps, s)).max()) for s, v in enumerate(evolved))

    results = {
        "d": d,
        "unitarity_err": unitarity_err,
        "cycling_err": cycling_err,
    }
    rows: list[dict] = []
    if cfg.t_rev_ratio is not None:
        spectrum = _spectrum_from(cfg)
        core = np.zeros(d, dtype=np.complex128)
        core[0] = 1.0
        state = AmplitudeVector(WAVEPACKET, core)
        sweep = {}
        for frac in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
            dt = frac * spectrum.t_rev
            fid = dispersion_fidelity(state, spectrum, dt)
            sweep[f"{frac:g}"] = fid
            rows.append({"dt_over_t_rev": frac, "dispersion_fidelity": fid})
        results["dispersion_fidelity_vs_t_rev"] = sweep
    else:
        rows.append({"unitarity_err": unitarity_err, "cycling_err": cycling_err})

    passed = unitarity_err < EPS_UNITARY and cycling_err < EPS_UNITARY
    return results, passed, rows


def _run_pulse(cfg: RunConfig) -> tuple[dict, bool, list[dict]]:
    spectrum = RydbergSpectrum(cfg.n_bar, cfg.d)
    couplings = RabiCouplings.uniform(cfg.d)

    pulse = PulseProfile(1.0, math.pi, shape=cfg.pulse_shape)
    evolved = integrate_two_level(AtomState.ground(cfg.d), pulse, couplings)
    got = np.array([evolved.b_g, evolved.wp.amps[0]])
    want = resonant_pulse_map(math.pi) @ np.array([1.0, 0.0])
    two_level_err = float(np.abs(got - want).max())

    durations = np.geomspace(
        spectrum.t_kepler, spectrum.t_kepler / (4.0 * cfg.d), num=8
    )
    chosen = float(cfg.pulse_duration_ratio * spectrum.t_kepler)
    # one stack maps every duration, and each point is its own selectivity_error to the bit, so the
    # chosen duration rides along as a ninth column
    sweep = selectivity_sweep(spectrum, couplings, np.append(durations, chosen),
                              area=cfg.pulse_area, shape=cfg.pulse_shape)
    leakage, chosen_leak = sweep[:-1], float(sweep[-1])
    monotone = bool(np.all(np.diff(leakage) < 0))

    rows = [
        {"duration_over_t_kepler": float(t / spectrum.t_kepler), "leakage": float(v)}
        for t, v in zip(durations, leakage)
    ]
    results = {
        "two_level_pi_error": two_level_err,
        "leakage_sweep": {
            "duration_over_t_kepler": [float(t / spectrum.t_kepler) for t in durations],
            "leakage": [float(v) for v in leakage],
            "monotone_decreasing": monotone,
        },
        "chosen_duration_ratio": cfg.pulse_duration_ratio,
        "chosen_leakage": chosen_leak,
    }
    passed = two_level_err < EPS_PULSE and monotone
    return results, passed, rows


def _run_iontrap(cfg: RunConfig) -> tuple[dict, bool, list[dict]]:
    shape = RegisterShape(cfg.d, cfg.trap_q)
    params = TrapParams(omega_ge=cfg.omega_ge)
    spectrum = _spectrum_from(cfg)
    report = verify_hybrid_gate(
        shape,
        cfg.control_index,
        cfg.target_index,
        params,
        spectrum,
        multiplicity=cfg.multiplicity,
        kepler_periods=cfg.kepler_periods,
    )
    passed = (
        abs(1.0 - report.fidelity) <= EPS_FIDELITY
        and report.trap_residual_max < EPS_TRAP_RESIDUAL
    )
    rows = [
        {
            "branch": i,
            "phase_error": err,
        }
        for i, err in enumerate(report.per_branch_phase_error)
    ]
    return asdict(report), passed, rows


# the layer runners in the order --mode full runs them; each is also a mode of its own
_LAYERS = {
    "verify-qft": _run_qft,
    "wavepacket": _run_wavepacket,
    "pulse": _run_pulse,
    "iontrap": _run_iontrap,
}
MODES = (*_LAYERS, "full")


def _run_full(cfg: RunConfig) -> tuple[dict, bool, list[dict]]:
    results: dict = {}
    rows: list[dict] = []
    passed = True
    for mode, runner in _LAYERS.items():
        name = mode.replace("-", "_")
        sub_results, sub_passed, sub_rows = runner(cfg)
        results[name] = {"results": sub_results, "passed": sub_passed}
        passed = passed and sub_passed
        rows += [{"section": name, **row} for row in sub_rows]
    return results, passed, rows


def render_report(cfg: RunConfig, results: dict, passed: bool) -> str:
    report = {
        "schema": REPORT_SCHEMA,
        "mode": cfg.mode,
        "config": asdict(cfg),
        "results": results,
        "passed": passed,
    }
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_csv(fh: TextIO, rows: list[dict]) -> None:
    writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(key for row in rows for key in row)), restval="")
    writer.writeheader()
    writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditfft",
        description="Simulate the qudit Fourier-transform decomposition and its ion-trap realization.",
    )
    parser.add_argument("--mode", choices=MODES, default=None, help="what to run (default verify-qft)")
    parser.add_argument("--config", default=None, help="JSON file with RunConfig keys")
    parser.add_argument("--d", type=int, default=None, help="levels per qudit")
    parser.add_argument("--q", type=int, default=None, help="number of qudits")
    parser.add_argument("--seed", type=int, default=None, help="seed for sampled verification inputs")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--spectrum-truncation",
        dest="truncation",
        choices=TRUNCATIONS,
        default=None,
        help="how many Taylor terms of the level spectrum to keep",
    )
    parser.add_argument(
        "--pulse-duration",
        dest="pulse_duration_ratio",
        type=float,
        default=None,
        help="pulse duration as a fraction of the Kepler period",
    )
    parser.add_argument("--csv", default=None, help="also write per-point results as CSV here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # "out"/"csv" -> its file, opened to append before the run: an unwritable path fails first, none is truncated
    files: dict[str, TextIO] = {}
    made: list[str] = []  # the files opened here that did not exist, removed again unless every file is written
    try:
        cfg = _config_from_sources(args)
        for flag in ("out", "csv"):
            path = getattr(args, flag)
            if path is not None:
                if not os.path.exists(path):
                    made.append(os.path.realpath(path))
                files[flag] = open(path, "a", encoding="utf-8", newline="" if flag == "csv" else None)
        results, passed, rows = (_run_full if cfg.mode == "full" else _LAYERS[cfg.mode])(cfg)
        text = render_report(cfg, results, passed)
        for flag, fh in files.items():
            if os.path.isfile(fh.name):  # a pipe or a device is written as it is
                fh.truncate(0)
            if flag == "out":
                fh.write(text)
            else:
                _write_csv(fh, rows)
            fh.close()
        made.clear()
        if args.out is None:
            sys.stdout.write(text)
    except ValueError as exc:  # ConfigurationError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violated: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {exc.filename or 'the report'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        for fh in files.values():
            with contextlib.suppress(OSError):  # the error in hand is the one reported
                fh.close()
        for path in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
