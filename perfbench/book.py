"""Deterministic generator for the ``book`` workload.

``make_book(seed, directory)`` writes ``incidents.csv``, ``tvl.csv``,
``portfolio.json`` (every protocol, for ``fit-frequency``) and
``portfolio_priced.json`` (the attacked protocols, for ``price`` and
``simulate``) and ``counts.json`` (rows made malformed, with missing TVL
and with zero loss, and the never-attacked protocols), and returns a
``Book`` that holds what was written: the accepted rows and those counts,
which the output checks compare against.  The same seed gives the same
bytes.  Sizes and shares are the module constants below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

N_PROTOCOLS = 256
NEVER_ATTACKED_SHARE = 0.10
N_ECOSYSTEM = 20_000
MISSING_TVL_SHARE = 0.25
ZERO_LOSS_SHARE = 0.02
MALFORMED_SHARE = 0.01
OUT_OF_WINDOW_SHARE = 0.03
SIMILARITY_GROUPS = 12
THETA = 0.5

WINDOW_END = (2023, 12)
CHAINS = ("ETH", "BSC", "OTHER")
CHAIN_WEIGHTS = (0.55, 0.25, 0.20)
ISSUE_TYPES = ("access_control", "flash_loan", "oracle", "phishing", "reentrancy", "other")
MALFORMED_KINDS = ("fields", "date", "loss", "negative", "tvl", "pid")

INCIDENTS_HEADER = "protocol_id,date,chain,issue_type,loss_usd,tvl_usd"
TVL_HEADER = "protocol_id,month,tvl_usd"


@dataclass
class Book:
    """What the generator wrote, parsed back into plain values."""

    directory: Path
    protocols: list[dict]            # id, chain, inception (year, month)
    tvl: dict[str, dict[tuple[int, int], float]]
    incidents: list[tuple]           # accepted rows: (pid, date, chain, issue, loss, tvl|None)
    priced_ids: list[str]
    priced_similarity: np.ndarray
    theta: float
    n_malformed: int
    n_missing_tvl: int
    n_zero_loss: int
    never_attacked: list[str]


def _months(start: tuple[int, int], end: tuple[int, int]) -> list[tuple[int, int]]:
    out = []
    y, m = start
    while (y, m) <= end:
        out.append((y, m))
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def _similarity(gen: np.random.Generator, n: int) -> np.ndarray:
    """Block similarity plus symmetric noise: valid entries, indefinite matrix."""
    groups = gen.integers(0, SIMILARITY_GROUPS, n)
    base = np.where(groups[:, None] == groups[None, :], 0.55, 0.15)
    noise = gen.uniform(-0.12, 0.12, (n, n))
    sim = np.clip(base + 0.5 * (noise + noise.T), 0.0, 1.0)
    sim = np.round(sim, 4)
    np.fill_diagonal(sim, 1.0)
    return sim


def _chain(gen: np.random.Generator) -> str:
    u = gen.random()
    return CHAINS[0] if u < CHAIN_WEIGHTS[0] else CHAINS[1] if u < 1.0 - CHAIN_WEIGHTS[2] else CHAINS[2]


def _malformed_row(kind: str, i: int, gen: np.random.Generator) -> str:
    day = f"2022-{int(gen.integers(1, 13)):02d}-{int(gen.integers(1, 28)):02d}"
    if kind == "fields":
        return f"X{i},{day},ETH,oracle,1000.00"
    if kind == "date":
        return f"X{i},2022-02-30,ETH,oracle,1000.00,5000.00"
    if kind == "loss":
        return f"X{i},{day},BSC,phishing,n/a,5000.00"
    if kind == "negative":
        return f"X{i},{day},BSC,phishing,-250.00,5000.00"
    if kind == "tvl":
        return f"X{i},{day},OTHER,other,1000.00,unknown"
    return f",{day},ETH,oracle,1000.00,5000.00"


def make_book(seed: int, directory: Path) -> Book:
    gen = np.random.default_rng([20240601, seed])
    directory.mkdir(parents=True, exist_ok=True)

    n_never = round(N_PROTOCOLS * NEVER_ATTACKED_SHARE)
    never = set(gen.choice(N_PROTOCOLS, n_never, replace=False).tolist())
    protocols = []
    tvl: dict[str, dict[tuple[int, int], float]] = {}
    tvl_lines = [TVL_HEADER]
    inc_lines: list[tuple[str, str]] = []  # (sort key, line)
    accepted: list[tuple] = []
    n_missing = n_zero = 0

    for k in range(N_PROTOCOLS):
        pid = f"B{k:04d}"
        chain = _chain(gen)
        start_index = int(gen.integers(0, 30))  # inception 2020-01 .. 2022-06
        inception = (2020 + start_index // 12, start_index % 12 + 1)
        months = _months(inception, WINDOW_END)
        log_tvl = gen.normal(17.5, 1.2) + np.cumsum(gen.normal(0.0, 0.2, len(months)))
        series = {}
        for (y, m), lt in zip(months, log_tvl):
            text = f"{math.exp(lt):.2f}"
            series[(y, m)] = float(text)
            tvl_lines.append(f"{pid},{y:04d}-{m:02d},{text}")
        tvl[pid] = series
        protocols.append({"id": pid, "chain": chain, "inception": inception})
        if k in never:
            continue
        z = (log_tvl - log_tvl.mean()) / max(float(log_tvl.std()), 1e-9)
        p = 1.0 / (1.0 + np.exp(-(-2.6 + 0.6 * z)))
        hits = np.flatnonzero(gen.random(len(months)) < p)
        if hits.size == 0:
            hits = np.array([len(months) // 2])
        for h in hits.tolist():
            y, m = months[h]
            for _ in range(1 + int(gen.random() < 0.1)):  # a second incident in the month
                when = date(y, m, int(gen.integers(1, 29)))
                issue = ISSUE_TYPES[int(gen.integers(0, len(ISSUE_TYPES)))]
                tv = series[(y, m)]
                if gen.random() < 0.25:
                    loss_text = f"{tv:.2f}"
                else:
                    loss_text = f"{max(float(gen.beta(1.2, 6.0)) * tv, 1000.0):.2f}"
                tvl_text = f"{tv:.2f}"
                line = f"{pid},{when.isoformat()},{chain},{issue},{loss_text},{tvl_text}"
                inc_lines.append((f"{when.isoformat()},{pid}", line))
                accepted.append((pid, when, chain, issue, float(loss_text), float(tvl_text)))

    n_malformed = round(N_ECOSYSTEM * MALFORMED_SHARE)
    for i in range(N_ECOSYSTEM):
        pid = f"E{i:05d}"
        if i < n_malformed:
            kind = MALFORMED_KINDS[i % len(MALFORMED_KINDS)]
            inc_lines.append((f"2022-00-00,{pid}", _malformed_row(kind, i, gen)))
            continue
        chain_raw = _chain(gen)
        if chain_raw == "OTHER" and gen.random() < 0.5:
            chain_raw = "Polygon"  # unknown chains parse to OTHER
        chain = chain_raw if chain_raw in CHAINS else "OTHER"
        if gen.random() < OUT_OF_WINDOW_SHARE:
            year = 2019 if gen.random() < 0.5 else 2024
        else:
            year = int(gen.integers(2020, 2024))
        when = date(year, int(gen.integers(1, 13)), int(gen.integers(1, 29)))
        issue = ISSUE_TYPES[int(gen.integers(0, len(ISSUE_TYPES)))]
        tv = math.exp(gen.normal(16.0, 1.8))
        u = gen.random()
        if u < ZERO_LOSS_SHARE:
            loss_text, tvl_text = "0.00", f"{tv:.2f}"
            n_zero += 1
        elif u < ZERO_LOSS_SHARE + MISSING_TVL_SHARE:
            loss_text, tvl_text = f"{math.exp(gen.normal(14.0, 1.5)):.2f}", ""
            n_missing += 1
        elif u < ZERO_LOSS_SHARE + MISSING_TVL_SHARE + 0.15:
            loss_text, tvl_text = f"{tv * float(gen.uniform(1.0, 1.3)):.2f}", f"{tv:.2f}"
        else:
            loss_text = f"{max(float(gen.beta(1.5, 4.0)) * tv, 1000.0):.2f}"
            tvl_text = f"{tv:.2f}"
        line = f"{pid},{when.isoformat()},{chain_raw},{issue},{loss_text},{tvl_text}"
        inc_lines.append((f"{when.isoformat()},{pid}", line))
        accepted.append(
            (pid, when, chain, issue, float(loss_text), float(tvl_text) if tvl_text else None)
        )

    inc_lines.sort()
    (directory / "incidents.csv").write_text(
        "\n".join([INCIDENTS_HEADER] + [line for _, line in inc_lines]) + "\n", encoding="utf-8"
    )
    (directory / "tvl.csv").write_text("\n".join(tvl_lines) + "\n", encoding="utf-8")

    sim = _similarity(gen, N_PROTOCOLS)
    entries = [
        {
            "id": p["id"],
            "chain": p["chain"],
            "inception": f"{p['inception'][0]:04d}-{p['inception'][1]:02d}",
            "description": "generated protocol",
        }
        for p in protocols
    ]
    sim_rows = [[float(v) for v in row] for row in sim]
    (directory / "portfolio.json").write_text(
        json.dumps({"protocols": entries, "similarity": sim_rows, "theta": THETA}) + "\n",
        encoding="utf-8",
    )
    keep = [k for k in range(N_PROTOCOLS) if k not in never]
    priced = {
        "protocols": [entries[k] for k in keep],
        "similarity": [[sim_rows[i][j] for j in keep] for i in keep],
        "theta": THETA,
    }
    (directory / "portfolio_priced.json").write_text(json.dumps(priced) + "\n", encoding="utf-8")

    counts = {"malformed": n_malformed, "missing_tvl": n_missing, "zero_loss": n_zero, "never_attacked": n_never}
    (directory / "counts.json").write_text(json.dumps(counts) + "\n", encoding="utf-8")
    return Book(
        directory=directory,
        protocols=protocols,
        tvl=tvl,
        incidents=accepted,
        priced_ids=[protocols[k]["id"] for k in keep],
        priced_similarity=sim[np.ix_(keep, keep)],
        theta=THETA,
        n_malformed=n_malformed,
        n_missing_tvl=n_missing,
        n_zero_loss=n_zero,
        never_attacked=[protocols[k]["id"] for k in sorted(never)],
    )
