"""Command-line surface: enumerate, table, tradeoff, verify, simulate.

Configuration comes from an optional key=value file overridden by
command-line flags; every emitted artifact embeds the resolved
configuration as leading comment lines, so outputs are reproducible
byte for byte from their own headers.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import (
    MAX_FIELD_SIZE,
    FieldMatrix,
    PrimeField,
    is_prime,
    smallest_prime_at_least,
)
from .leakage import (
    ResourceLimitError,
    build_all_tables,
    build_query_table,
    check_table_budget,
    download_cost_form,
    serialize_query,
    shared_table,
    table_to_csv,
    uniform_pmf,
)
from .mds import MdsCode, make_rs_code
from .optimizer import default_grid, frontier, solve_tradeoff_point
from .protocol import MAX_SERVERS, simulate_downloads, verify_retrievability
from .schemes import SchemeKind, make_scheme
from .storage import FileSet, effective_params, encode_storage

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

MEMBER_PRINT_LIMIT = 256


class ConfigError(ValueError):
    """An invalid configuration; nothing is computed or written."""


@dataclass(frozen=True)
class InstanceConfig:
    scheme: SchemeKind
    m_files: int
    n_servers: int
    dim: int
    field_q: int
    grid: int
    seed: int
    out: str | None

    def header_lines(self) -> list[str]:
        return [
            f"# scheme={self.scheme.value}",
            f"# files={self.m_files}",
            f"# servers={self.n_servers}",
            f"# dim={self.dim}",
            f"# field={self.field_q}",
            f"# grid={self.grid}",
            f"# seed={self.seed}",
        ]


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _check_out_path(path: str) -> None:
    """Refuse, before any work, an output path that is a directory or
    whose directory does not exist."""
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"directory {parent!r} of {path!r} does not exist")


_CONFIG_KEYS = {"scheme", "files", "servers", "dim", "field", "grid", "seed", "out"}


def resolve_config(args: argparse.Namespace) -> InstanceConfig:
    """Merge config file and flags, then validate everything up front."""
    file_cfg = load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(flag_value, key, cast, default=None):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            try:
                return cast(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        return default

    scheme_raw = pick(args.scheme, "scheme", str)
    if scheme_raw is None:
        raise ConfigError("a scheme is required (--scheme or config)")
    try:
        scheme = SchemeKind(scheme_raw)
    except ValueError:
        raise ConfigError(f"unknown scheme {scheme_raw!r}") from None
    m_files = pick(args.files, "files", int, 2)
    n_servers = pick(args.servers, "servers", int)
    dim = pick(args.dim, "dim", int)
    if n_servers is None or dim is None:
        raise ConfigError("server count and code dimension are required")
    if m_files < 1:
        raise ConfigError(f"need at least one file, got {m_files}")
    if not n_servers > dim >= 1:
        raise ConfigError(f"need N > K >= 1, got N={n_servers}, K={dim}")
    if n_servers > MAX_SERVERS:
        # the effective n never exceeds N, so query entries then fit one byte too
        raise ConfigError(
            f"server count {n_servers} exceeds {MAX_SERVERS}: "
            "server indices travel as one byte"
        )
    if scheme is SchemeKind.OLR and m_files == 1 and effective_params(n_servers, dim).k > 1:
        raise ConfigError(
            "olr with one file needs effective k = 1: its implied column "
            "repeats one entry, so the strategy alphabet is empty"
        )
    field_q = pick(args.field, "field", int, smallest_prime_at_least(n_servers))
    if field_q > MAX_FIELD_SIZE:
        raise ConfigError(
            f"field size {field_q} exceeds {MAX_FIELD_SIZE}: answer symbols are 2 bytes"
        )
    if not is_prime(field_q):
        raise ConfigError(f"field size {field_q} is not prime")
    if field_q < n_servers:
        raise ConfigError(f"field size {field_q} is below the server count {n_servers}")
    grid = pick(args.grid, "grid", int, 60)
    if grid < 2:
        raise ConfigError(f"sweep grid needs at least 2 points, got {grid}")
    seed = pick(args.seed, "seed", int, 0)
    out = pick(args.out, "out", str)
    if out:
        _check_out_path(out)
    return InstanceConfig(
        scheme=scheme,
        m_files=m_files,
        n_servers=n_servers,
        dim=dim,
        field_q=field_q,
        grid=grid,
        seed=seed,
        out=out,
    )


def _emit(cfg: InstanceConfig, body: str, stdout) -> None:
    text = "\n".join(cfg.header_lines()) + "\n" + body
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _member_str(member) -> str:
    if member and isinstance(member[0], int):
        return " ".join(str(v) for v in member)
    if not member:
        return "-"
    return " | ".join(" ".join(str(e) for e in sel) for sel in member)


def cmd_enumerate(cfg: InstanceConfig, args, stdout) -> int:
    inst = make_scheme(cfg.scheme, cfg.m_files, cfg.n_servers, cfg.dim)
    lines = [
        f"scheme={cfg.scheme.value} n={inst.params.n} k={inst.params.k} "
        f"M={cfg.m_files} cardinality={inst.alphabet.size}"
    ]
    if inst.alphabet.size <= MEMBER_PRINT_LIMIT:
        for idx, member in enumerate(inst.alphabet.members, start=1):
            lines.append(f"z{idx}: {_member_str(member)}")
    else:
        lines.append(f"(members elided above {MEMBER_PRINT_LIMIT})")
    _emit(cfg, "\n".join(lines) + "\n", stdout)
    return EXIT_OK


def cmd_table(cfg: InstanceConfig, args, stdout) -> int:
    if not 1 <= args.server <= cfg.n_servers:
        raise ConfigError(f"server {args.server} outside [1:{cfg.n_servers}]")
    inst = make_scheme(cfg.scheme, cfg.m_files, cfg.n_servers, cfg.dim)
    table = build_query_table(inst, args.server)
    _emit(cfg, table_to_csv(table), stdout)
    return EXIT_OK


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render rate versus normalized leakage from {csv}.\"\"\"
import csv

import matplotlib.pyplot as plt

xs, ys = [], []
with open({csv!r}) as fh:
    for row in csv.DictReader(r for r in fh if not r.startswith("#")):
        xs.append(float(row["leakage_normalized"]))
        ys.append(float(row["rate"]))
plt.plot(xs, ys, marker="o")
plt.xlabel("normalized leakage")
plt.ylabel("rate")
plt.grid(True)
plt.savefig({png!r}, dpi=160)
"""


def cmd_tradeoff(cfg: InstanceConfig, args, stdout) -> int:
    if args.plot_script:
        if not cfg.out:
            raise ConfigError("--plot-script needs --out so the script has data to read")
        _check_out_path(args.plot_script)
    inst = make_scheme(cfg.scheme, cfg.m_files, cfg.n_servers, cfg.dim)
    # time sharing gives every server the same table (wpir verify checks it)
    tables = (build_query_table(inst, 1),)
    cost = download_cost_form(tables)
    targets = default_grid(cost, inst.alphabet.size, cfg.grid)
    lines = [
        "scheme,M,N,K,D_target,D_achieved,leakage_bits,leakage_normalized,rate"
    ]
    fr = frontier(tables, cost)
    for d_target in targets:
        pt = solve_tradeoff_point(fr, d_target, inst.params.lam, inst.dim)
        if pt is None:
            lines.append(f"# infeasible at D_target={float(d_target):.12g}")
            continue
        lines.append(
            f"{cfg.scheme.value},{cfg.m_files},{cfg.n_servers},{cfg.dim},"
            f"{float(pt.d_target):.12g},{float(pt.d_achieved):.12g},"
            f"{pt.leakage_bits:.12g},{pt.leakage_normalized:.12g},"
            f"{float(pt.rate):.12g}"
        )
    _emit(cfg, "\n".join(lines) + "\n", stdout)
    if args.plot_script:
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(
                _PLOT_SCRIPT.format(csv=cfg.out, png=cfg.out + ".png")
            )
    return EXIT_OK


def _build_code(cfg: InstanceConfig, corrupt: bool) -> MdsCode:
    code = make_rs_code(cfg.n_servers, cfg.dim, PrimeField(cfg.field_q))
    if corrupt:
        g = code.generator.to_ints()
        for row in g:
            row[-1] = 0  # a zero column breaks the MDS property for every K
        return MdsCode(
            cfg.n_servers, cfg.dim, FieldMatrix.from_ints(g, code.field)
        )
    return code


def _check_samples(args) -> None:
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"--samples needs at least 1, got {args.samples}")


def cmd_verify(cfg: InstanceConfig, args, stdout) -> int:
    _check_samples(args)
    inst = make_scheme(cfg.scheme, cfg.m_files, cfg.n_servers, cfg.dim)
    sampled = bool(args.samples) and not args.exhaustive
    try:
        check_table_budget(inst, inst.n_servers)
        skipped = None
    except ResourceLimitError as exc:
        if not sampled:
            raise
        skipped = exc  # a sampled run is decided by its retrievals alone
    try:
        code = _build_code(cfg, args.corrupt_generator)
    except ValueError as exc:
        stdout.write(f"FAIL mds: {exc}\n")
        return EXIT_VERIFY_FAILED
    files = FileSet.random(
        cfg.m_files, inst.params.lam, cfg.dim, code.field, seed=cfg.seed
    )
    storage = encode_storage(files, code)
    report = verify_retrievability(
        inst,
        storage,
        mode="sampled" if sampled else "exhaustive",
        samples=args.samples or 0,
        seed=cfg.seed,
    )
    ok = report.all_ok
    stdout.write(
        f"retrievability: mode={report.mode} seed={report.seed} "
        f"transcripts={report.total} failures={len(report.failures)} "
        f"mean_download={report.mean_downloaded:.6g}\n"
    )
    for m, si, t, reason in report.failures[:20]:
        stdout.write(f"FAIL retrieval m={m} s_index={si} t={t}: {reason}\n")
    if skipped is not None:
        stdout.write(f"per-server tables identical: skipped ({skipped})\n")
    else:
        try:
            shared_table(build_all_tables(inst))
            equal = True
        except ValueError:
            equal = False
        stdout.write(f"per-server tables identical: {'yes' if equal else 'NO'}\n")
        ok = ok and equal
    stdout.write("verification PASSED\n" if ok else "verification FAILED\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_simulate(cfg: InstanceConfig, args, stdout) -> int:
    _check_samples(args)
    inst = make_scheme(cfg.scheme, cfg.m_files, cfg.n_servers, cfg.dim)
    check_table_budget(inst, 1)
    z = uniform_pmf(inst.alphabet.size)
    stats = simulate_downloads(inst, z, count=args.samples or 10000, seed=cfg.seed)
    table = build_query_table(inst, 1)
    cost = download_cost_form((table,))
    analytic = float(cost.evaluate(z))
    lines = [
        f"# samples={stats.count} empirical_mean_download={stats.mean_downloaded:.6f} "
        f"analytic={analytic:.6f}",
        "server,query,count,probability",
    ]
    # at uniform z, P(q) is q's count total over M files, N shifts and |S|
    totals = np.asarray(table.counts.sum(axis=1)).reshape(-1, inst.m_files).sum(axis=1)
    index = {key.tobytes(): qi for qi, key in enumerate(table.keys)}
    denominator = inst.m_files * table.n_servers * inst.alphabet.size
    for j in sorted(stats.query_counts):
        for q in sorted(stats.query_counts[j], key=lambda q: q.rows):
            qi = index[bytes(v for row in q.rows for v in row)]
            prob = Fraction(int(totals[qi]), denominator)
            lines.append(
                f"{j},{serialize_query(q)},{stats.query_counts[j][q]},"
                f"{float(prob):.12g}"
            )
    _emit(cfg, "\n".join(lines) + "\n", stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value configuration file")
    shared.add_argument("--scheme", choices=[k.value for k in SchemeKind])
    shared.add_argument("--files", type=int, metavar="M")
    shared.add_argument("--servers", type=int, metavar="N")
    shared.add_argument("--dim", type=int, metavar="K")
    shared.add_argument("--field", type=int, metavar="Q")
    shared.add_argument("--grid", type=int, metavar="G")
    shared.add_argument("--seed", type=int, metavar="S")
    shared.add_argument("--out", metavar="PATH")

    parser = argparse.ArgumentParser(
        prog="wpir",
        description="Weakly-private information retrieval schemes, "
        "trade-off optimizer, and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("enumerate", parents=[shared],
                   help="print the strategy alphabet and its cardinality")
    p_table = sub.add_parser("table", parents=[shared],
                             help="dump one server's conditional query table")
    p_table.add_argument("--server", type=int, default=1, metavar="J")
    p_trade = sub.add_parser("tradeoff", parents=[shared],
                             help="sweep the rate-leakage trade-off curve")
    p_trade.add_argument("--plot-script", metavar="PATH",
                         help="also emit a plotting script for the CSV")
    p_verify = sub.add_parser("verify", parents=[shared],
                              help="check perfect retrievability end to end")
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="run every (m, s, t) triple (default)")
    p_verify.add_argument("--samples", type=int, metavar="COUNT",
                          help="sample this many triples instead")
    p_verify.add_argument("--corrupt-generator", action="store_true",
                          help=argparse.SUPPRESS)
    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="Monte Carlo query stream statistics")
    p_sim.add_argument("--samples", type=int, metavar="COUNT")
    return parser


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "table": cmd_table,
    "tradeoff": cmd_tradeoff,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, args, stdout)
    except (ConfigError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
