"""Command-line front end.

    drsim run        --config cfg --out dir    single run CSV + summary
    drsim compare    --config cfg --out dir    3-protocol experiment + stats
    drsim partition  --config cfg --out dir    region geometry CSV
    drsim analytic   --config cfg --out dir    closed-form P-sweep CSV

All randomness is controlled by the config seed; re-running with identical
inputs reproduces byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import tempfile

from . import analytic, radio, sim
from .config import parse_config
from .geometry import build_partition


def _write_atomic(path: str, body: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _prepare_out_dir(out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write-probe")
    with open(probe, "w"):
        pass
    os.unlink(probe)


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def cmd_run(config, out_dir: str) -> int:
    series, summary = sim.run(config)
    rows = [[str(m.round), str(m.alive), str(m.ch_count), str(m.packets_to_bs),
             f"{m.energy_spent:.9e}", f"{m.cumulative_energy:.9e}"]
            for m in series]
    _write_atomic(os.path.join(out_dir, "run.csv"),
                  _csv(["round", "alive", "ch_count", "packets_to_bs",
                        "energy_spent", "cumulative_energy"], rows))
    text = (f"protocol: {config.protocol.value}\n"
            f"seed: {config.seed}\n"
            f"rounds simulated: {len(series)}\n"
            f"first node death (FND): {summary.fnd}\n"
            f"half nodes dead (HND): {summary.hnd}\n"
            f"last node death (LND): {summary.lnd}\n"
            f"packets delivered to BS: {summary.total_packets}\n")
    _write_atomic(os.path.join(out_dir, "run_summary.txt"), text)
    print(text, end="")
    return 0


def cmd_compare(config, out_dir: str) -> int:
    result = sim.experiment(config)
    rows = [[kind.value, str(seed), str(s.fnd), str(s.hnd), str(s.lnd),
             str(s.total_packets)]
            for kind, seed, s in result.rows]
    _write_atomic(os.path.join(out_dir, "experiment.csv"),
                  _csv(["protocol", "seed", "fnd", "hnd", "lnd",
                        "total_packets"], rows))

    lines = [f"runs per protocol: {config.runs} (seeds {config.seed}.."
             f"{config.seed + config.runs - 1})", ""]
    for kind in sim.EXPERIMENT_PROTOCOLS:
        agg = result.aggregates[kind]
        lines.append(f"{kind.value}:")
        for name in ("fnd", "hnd", "lnd", "total_packets"):
            lines.append(f"  {name}: mean {agg[name]['mean']:.1f}, "
                         f"median {agg[name]['median']:.1f}")
    lines.append("")
    for (a, b), stats in result.improvements.items():
        lines.append(f"FND improvement {a.value} vs {b.value}: "
                     f"median {stats['median']:+.2f}%, mean {stats['mean']:+.2f}%")
    text = "\n".join(lines) + "\n"
    _write_atomic(os.path.join(out_dir, "compare_summary.txt"), text)
    print(text, end="")
    return 0


def cmd_partition(config, out_dir: str) -> int:
    fp = build_partition(config.field_length, config.n_rings)
    rows = [[str(r.id), r.kind.value, str(r.ring),
             f"{r.bounds.min_corner.x:.6f}", f"{r.bounds.min_corner.y:.6f}",
             f"{r.bounds.max_corner.x:.6f}", f"{r.bounds.max_corner.y:.6f}",
             f"{r.midpoint.x:.6f}", f"{r.midpoint.y:.6f}"]
            for r in fp.regions]
    _write_atomic(os.path.join(out_dir, "partition.csv"),
                  _csv(["region_id", "kind", "ring", "min_x", "min_y",
                        "max_x", "max_y", "mid_x", "mid_y"], rows))
    print(f"wrote {len(rows)} regions to {os.path.join(out_dir, 'partition.csv')}")
    return 0


def cmd_analytic(config, out_dir: str) -> int:
    """P-sweep of the closed forms at the config's density and geometry.

    The representative link distance is the distance factor d; the per-CH
    aggregation charge is e_da * bits * (expected signals) for each ring.
    The closed forms model three concentric squares only.
    """
    if config.n_rings != 3:
        raise ValueError(f"analytic models exactly 3 concentric squares, "
                         f"got n_rings={config.n_rings}")
    area = config.field_length ** 2
    rho = config.node_count / area if area > 0 else math.inf
    too_small = (f"field_length={config.field_length} is too small for the "
                 f"closed forms: the density node_count / field_length^2 = "
                 f"{rho} makes them overflow")
    if not math.isfinite(rho):
        raise ValueError(too_small)
    d = config.field_length / (2 * config.n_rings)
    bits = config.packet_bits
    params = config.radio
    t_fn = lambda dist: radio.tx_energy(params, bits, dist)
    r_e = radio.rx_energy(params, bits)

    rows = []
    for i in range(21):
        p_cr = i / 20
        cr_pop = p_cr * rho * d ** 2
        def inputs(phi):
            return analytic.AnalyticInputs(rho, d, p_cr, bits, t_fn, r_e, phi)
        phi_ms = params.e_da * bits * (2 * rho * d ** 2 + cr_pop)
        phi_os = params.e_da * bits * (4 * rho * d ** 2 + cr_pop)
        e_is = analytic.e_inner_square(inputs(0.0), d)
        e_cr = 8 * analytic.e_corner_regions(inputs(0.0), d)
        e_ms = analytic.e_middle_square_total(inputs(phi_ms), d)
        e_os = analytic.e_outer_square_total(inputs(phi_os), d)
        e_total = e_is + e_cr + e_ms + e_os
        if not math.isfinite(e_total):
            raise ValueError(too_small)
        rows.append([f"{rho:.6g}", f"{d:.6f}", f"{p_cr:.2f}",
                     f"{e_is:.9e}", f"{e_cr:.9e}", f"{e_ms:.9e}",
                     f"{e_os:.9e}", f"{e_total:.9e}"])
    _write_atomic(os.path.join(out_dir, "analytic.csv"),
                  _csv(["rho", "d", "P", "e_is", "e_cr", "e_ms", "e_os",
                        "e_total"], rows))
    print(f"wrote P sweep to {os.path.join(out_dir, 'analytic.csv')}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "partition": cmd_partition,
    "analytic": cmd_analytic,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsim",
        description="DR / LEACH / LEACH-C wireless sensor network simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--config", default=None,
                         help="key = value config file (defaults apply if omitted)")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="config override, applied after the file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, args.set)
        _prepare_out_dir(args.out)
        return _COMMANDS[args.command](config, args.out)
    except ValueError as exc:
        print(f"drsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"drsim: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
