"""Report rendering: markdown/HTML summaries of a results store.

The renderer is a pure function of store rows.  Output sections:

* **cross-protocol tables** — one row per experiment shape
  (backend, n, rate, payload, scenario), protocols side by side with
  mean throughput, a bootstrap confidence interval, speedup vs the
  named baseline protocol, and a Mann-Whitney rank-test p-value
  against the baseline's sample;
* **throughput/latency-vs-n curves** — per (backend, protocol), the
  scaling trajectory; the HTML renderer draws them as inline SVG
  polylines, the markdown renderer as tables;
* **legacy artifact summaries** — bench rows (micro coding /
  sim eventloop) aggregated on the machine-independent speedup column,
  and the committed calibration presets.

Tables are computed **per host fingerprint**: rows from different
hosts never meet in one absolute-throughput comparison (the same
policy as the benchmark regression gates — absolute req/s is
machine-dependent; only ratio columns travel across hosts).
"""

from __future__ import annotations

import html
import math
from collections import defaultdict
from typing import Any, Sequence

from repro.expt.stats import (
    bootstrap_ci,
    geometric_mean,
    mann_whitney_u,
    mean,
    speedup,
)

#: Shape fields a cross-protocol comparison holds fixed.  The last two
#: are set only on rows recorded while the simulator had selectable
#: engines; absent or falsy means the one engine there is now.
SHAPE_FIELDS = ("backend", "n", "rate", "payload", "scenario",
                "queue_backend", "waves")


def _shape_key(row: dict[str, Any]) -> tuple:
    *shape, queue_backend, waves = (row.get(field)
                                    for field in SHAPE_FIELDS)
    return (*shape, queue_backend or None, bool(waves))


def _shape_label(shape: tuple) -> str:
    backend, n, rate, payload, scenario, queue_backend, waves = shape
    label = f"{backend} n={n} rate={rate:.0f} payload={payload}B"
    if scenario:
        label += f" scenario={scenario}"
    if queue_backend:
        label += f" queue={queue_backend}"
    if waves:
        label += " waves"
    return label


def _fmt(value: float | None, pattern: str = "{:.0f}") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return pattern.format(value)


def cross_protocol_tables(trial_rows: Sequence[dict[str, Any]],
                          baseline: str = "pbft") -> list[dict[str, Any]]:
    """Comparison rows grouped per host, one entry per shape.

    Each entry: ``{"host", "shape", "label", "protocols": {name: {
    "count", "mean_rps", "ci_rps", "latency_p50_s", "speedup",
    "rank_p"}}}``.  ``speedup``/``rank_p`` are vs ``baseline`` on the
    same host and shape (``None`` when the baseline protocol has no
    sample there).
    """
    cells: dict[tuple, dict[str, list[dict]]] = defaultdict(
        lambda: defaultdict(list))
    for row in trial_rows:
        cells[(row.get("host"), _shape_key(row))][row["protocol"]].append(
            row)
    tables = []
    # Shapes sort with an unset field (``None``) first, as text.
    for (host, shape), by_protocol in sorted(
            cells.items(),
            key=lambda item: (str(item[0][0]),
                              tuple("" if field is None else field
                                    for field in item[0][1]))):
        base_tput = [r["metrics"]["throughput_rps"]
                     for r in by_protocol.get(baseline, ())]
        protocols = {}
        for protocol, rows in sorted(by_protocol.items()):
            tput = [r["metrics"]["throughput_rps"] for r in rows]
            p50 = [r["metrics"]["latency_p50_s"] for r in rows
                   if r["metrics"]["latency_p50_s"] is not None]
            entry = {
                "count": len(rows),
                "mean_rps": mean(tput),
                "ci_rps": bootstrap_ci(tput),
                "latency_p50_s": mean(p50) if p50 else math.nan,
                "speedup": None,
                "rank_p": None,
            }
            if base_tput and protocol != baseline:
                entry["speedup"] = speedup(tput, base_tput)
                entry["rank_p"] = mann_whitney_u(tput, base_tput)[1]
            protocols[protocol] = entry
        tables.append({
            "host": host,
            "shape": dict(zip(SHAPE_FIELDS, shape)),
            "label": _shape_label(shape),
            "protocols": protocols,
        })
    return tables


def scaling_curves(trial_rows: Sequence[dict[str, Any]]
                   ) -> list[dict[str, Any]]:
    """Throughput/latency-vs-n series per (host, backend, protocol).

    Only shapes that vary *n* alone line up on a curve; each point
    averages the repeats at that n.
    """
    series: dict[tuple, dict[int, list[dict]]] = defaultdict(
        lambda: defaultdict(list))
    for row in trial_rows:
        key = (row.get("host"), row.get("backend"), row["protocol"],
               row.get("rate"), row.get("payload"), row.get("scenario"))
        series[key][int(row["n"])].append(row)
    curves = []
    for key, by_n in sorted(series.items(),
                            key=lambda item: tuple(map(str, item[0]))):
        host, backend, protocol, rate, payload, scenario = key
        points = []
        for n, rows in sorted(by_n.items()):
            tput = [r["metrics"]["throughput_rps"] for r in rows]
            p50 = [r["metrics"]["latency_p50_s"] for r in rows
                   if r["metrics"]["latency_p50_s"] is not None]
            points.append({
                "n": n,
                "mean_rps": mean(tput),
                "ci_rps": bootstrap_ci(tput),
                "latency_p50_s": mean(p50) if p50 else math.nan,
                "count": len(rows),
            })
        curves.append({
            "host": host, "backend": backend, "protocol": protocol,
            "rate": rate, "payload": payload, "scenario": scenario,
            "points": points,
        })
    return curves


def bench_summary(bench_rows: Sequence[dict[str, Any]]
                  ) -> list[dict[str, Any]]:
    """Machine-independent aggregation of ingested bench artifacts."""
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for row in bench_rows:
        groups[(row.get("bench"), row.get("host"), row.get("mode"),
                row.get("op"))].append(row)
    out = []
    for (bench, host, mode, op), rows in sorted(
            groups.items(), key=lambda item: tuple(map(str, item[0]))):
        speedups = [r.get("speedup") for r in rows
                    if isinstance(r.get("speedup"), (int, float))]
        out.append({
            "bench": bench, "host": host, "mode": mode, "op": op,
            "rows": len(rows),
            "speedup_geomean": geometric_mean(speedups),
            "speedup_max": max(speedups) if speedups else math.nan,
        })
    return out


def summarize(store, baseline: str = "pbft") -> dict[str, Any]:
    """Every rendered section, as data (the renderers format this)."""
    trial_rows = store.rows(kind="trial")
    return {
        "baseline": baseline,
        "trials": len(trial_rows),
        "hosts": store.hosts(),
        "experiments": sorted({r["experiment"] for r in trial_rows}),
        "tables": cross_protocol_tables(trial_rows, baseline=baseline),
        "curves": scaling_curves(trial_rows),
        "bench": bench_summary(store.rows(kind="bench_row")),
        "presets": store.rows(kind="calibration_preset"),
    }


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------


def _ci_text(ci: tuple[float, float]) -> str:
    lo, hi = ci
    if math.isnan(lo) or math.isnan(hi):
        return "n/a"
    return f"[{lo:.0f}, {hi:.0f}]"


def render_markdown(store, baseline: str = "pbft") -> str:
    """The store as a markdown report."""
    summary = summarize(store, baseline=baseline)
    lines = ["# Experiment report", ""]
    lines.append(f"- trials: **{summary['trials']}** across "
                 f"{len(summary['experiments'])} experiment(s) "
                 f"({', '.join(summary['experiments']) or 'none'})")
    lines.append(f"- hosts: {len(summary['hosts'])} "
                 "(absolute throughput is compared per host only)")
    lines.append(f"- baseline protocol for speedups/rank tests: "
                 f"`{baseline}`")
    lines.append("")

    if summary["tables"]:
        lines += ["## Cross-protocol comparison", ""]
    for table in summary["tables"]:
        lines.append(f"### {table['label']}")
        lines.append(f"host: `{table['host']}`")
        lines.append("")
        lines.append("| protocol | trials | mean req/s | 95% CI | "
                     "p50 latency | speedup vs "
                     f"{baseline} | rank-test p |")
        lines.append("|---|---|---|---|---|---|---|")
        for protocol, entry in table["protocols"].items():
            p50 = entry["latency_p50_s"]
            lines.append(
                f"| {protocol} | {entry['count']} "
                f"| {_fmt(entry['mean_rps'])} "
                f"| {_ci_text(entry['ci_rps'])} "
                f"| {_fmt(p50 * 1e3 if not math.isnan(p50) else p50, '{:.1f} ms')} "
                f"| {_fmt(entry['speedup'], '{:.2f}x')} "
                f"| {_fmt(entry['rank_p'], '{:.3f}')} |")
        lines.append("")

    curves = [c for c in summary["curves"] if len(c["points"]) > 1]
    if curves:
        lines += ["## Throughput vs n", ""]
        for curve in curves:
            lines.append(
                f"### {curve['protocol']} ({curve['backend']}, "
                f"rate={curve['rate']:.0f}, payload={curve['payload']}B"
                + (f", scenario={curve['scenario']}"
                   if curve['scenario'] else "") + ")")
            lines.append(f"host: `{curve['host']}`")
            lines.append("")
            lines.append("| n | mean req/s | 95% CI | p50 latency | runs |")
            lines.append("|---|---|---|---|---|")
            for point in curve["points"]:
                p50 = point["latency_p50_s"]
                lines.append(
                    f"| {point['n']} | {_fmt(point['mean_rps'])} "
                    f"| {_ci_text(point['ci_rps'])} "
                    f"| {_fmt(p50 * 1e3 if not math.isnan(p50) else p50, '{:.1f} ms')} "
                    f"| {point['count']} |")
            lines.append("")

    if summary["bench"]:
        lines += ["## Ingested benchmark artifacts", ""]
        lines.append("| bench | host | mode | op | rows | "
                     "speedup geomean | speedup max |")
        lines.append("|---|---|---|---|---|---|---|")
        for entry in summary["bench"]:
            lines.append(
                f"| {entry['bench']} | `{entry['host']}` | {entry['mode']} "
                f"| {entry['op']} | {entry['rows']} "
                f"| {_fmt(entry['speedup_geomean'], '{:.2f}x')} "
                f"| {_fmt(entry['speedup_max'], '{:.2f}x')} |")
        lines.append("")

    if summary["presets"]:
        lines += ["## Calibration presets", ""]
        lines.append("| host | protocol | cost scale | points |")
        lines.append("|---|---|---|---|")
        for row in summary["presets"]:
            lines.append(
                f"| `{row['host']}` | {row['protocol']} "
                f"| {_fmt(row['scale'], '{:.3f}')} | {row['points']} |")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# HTML (markdown tables plus inline SVG curves; no dependencies)
# ---------------------------------------------------------------------------


def _svg_curve(curve: dict[str, Any], width: int = 420,
               height: int = 180) -> str:
    """One throughput-vs-n polyline as a self-contained inline SVG."""
    points = [(p["n"], p["mean_rps"]) for p in curve["points"]
              if not math.isnan(p["mean_rps"])]
    if len(points) < 2:
        return ""
    pad = 30
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_span = (max(xs) - min(xs)) or 1
    y_span = (max(ys) - min(ys)) or 1

    def sx(x: float) -> float:
        return pad + (x - min(xs)) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - min(ys)) / y_span * (height - 2 * pad)

    path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    dots = "".join(
        f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" />'
        for x, y in points)
    title = html.escape(
        f"{curve['protocol']} ({curve['backend']}) throughput vs n")
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{title}">'
        f'<rect width="{width}" height="{height}" fill="none" '
        f'stroke="#ccc"/>'
        f'<polyline fill="none" stroke="#326fa8" stroke-width="2" '
        f'points="{path}"/>{dots}'
        f'<text x="{pad}" y="{height - 8}" font-size="11">'
        f'n={min(xs)}..{max(xs)}</text>'
        f'<text x="{pad}" y="16" font-size="11">'
        f'{_fmt(min(ys))}..{_fmt(max(ys))} req/s</text>'
        "</svg>")


def render_html(store, baseline: str = "pbft") -> str:
    """The store as a standalone HTML page (tables + SVG curves)."""
    summary = summarize(store, baseline=baseline)
    markdown = render_markdown(store, baseline=baseline)
    # Markdown tables -> HTML tables (line-oriented; good enough for
    # our own renderer's output, not a general converter).
    body: list[str] = []
    in_table = False
    for line in markdown.splitlines():
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-"} for c in cells):
                continue        # the separator row
            tag = "th" if not in_table else "td"
            if not in_table:
                body.append("<table>")
                in_table = True
            body.append(
                "<tr>" + "".join(
                    f"<{tag}>{html.escape(c).replace('`', '')}</{tag}>"
                    for c in cells) + "</tr>")
            continue
        if in_table:
            body.append("</table>")
            in_table = False
        if line.startswith("# "):
            body.append(f"<h1>{html.escape(line[2:])}</h1>")
        elif line.startswith("## "):
            body.append(f"<h2>{html.escape(line[3:])}</h2>")
        elif line.startswith("### "):
            body.append(f"<h3>{html.escape(line[4:])}</h3>")
        elif line.startswith("- "):
            body.append(f"<p>{html.escape(line[2:])}</p>")
        elif line.strip():
            body.append(f"<p>{html.escape(line)}</p>")
    if in_table:
        body.append("</table>")
    svgs = [svg for curve in summary["curves"]
            if (svg := _svg_curve(curve))]
    if svgs:
        body.append("<h2>Scaling curves</h2>")
        body.extend(svgs)
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>Experiment report</title><style>"
        "body{font-family:system-ui,sans-serif;margin:2rem;max-width:70rem}"
        "table{border-collapse:collapse;margin:1rem 0}"
        "td,th{border:1px solid #bbb;padding:0.3rem 0.6rem;"
        "text-align:right}th{background:#f0f0f0}"
        "td:first-child,th:first-child{text-align:left}"
        "svg{margin:0.5rem 1rem 0.5rem 0}"
        "</style></head><body>" + "\n".join(body) + "</body></html>")
