"""Result containers and table rendering for experiments.

Every experiment returns an :class:`ExperimentResult`; the CLI and the
EXPERIMENTS.md generation render it with :func:`render_result`, which produces
fixed-width text tables (the paper's artefacts are all small tables or
figures, so plain text is the faithful output format).

On top of the per-result renderers, :func:`render_markdown_report` and
:func:`render_html_report` turn a collection of *stored artifact records*
(:mod:`repro.experiments.artifacts`) into a static report -- per-experiment
tables, profile and parameters, wall-clock timings and the environment stamp.
``repro-star report results/`` drives them, and the Markdown output doubles
as the docs site's results page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

__all__ = [
    "ExperimentResult",
    "format_table",
    "render_result",
    "json_safe",
    "result_from_payload",
    "format_markdown_table",
    "markdown_escape",
    "render_markdown_report",
    "render_html_report",
]


def json_safe(value):
    """Recursively convert *value* into plain JSON-serialisable types.

    Experiment rows may hold NumPy scalars (from the vectorised services),
    tuples and arbitrary cell objects; NumPy scalars unwrap via ``item()``,
    tuples/lists/dicts recurse and anything non-primitive falls back to
    ``str``.
    """
    if isinstance(value, bool) or value is None:
        return value
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            value = value.item()
        except (TypeError, ValueError):  # pragma: no cover - exotic array cells
            return str(value)
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(json_safe(k)): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return str(value)


@dataclass
class ExperimentResult:
    """The output of one experiment.

    Attributes
    ----------
    experiment_id:
        Stable identifier matching DESIGN.md's per-experiment index
        (``FIG7``, ``THM4``, ...).
    title:
        Human-readable title (usually the paper artefact name).
    headers:
        Column names of the result table.
    rows:
        Table rows; cells may be any object with a sensible ``str``.
    notes:
        Free-form remarks (paper-vs-measured commentary, caveats).
    summary:
        Key/value pairs summarising the outcome (used by tests and
        EXPERIMENTS.md, e.g. ``{"dilation": 3, "claim_holds": True}``).
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    def assert_claim(self) -> None:
        """Raise AssertionError unless the experiment's headline claim holds.

        Experiments set ``summary["claim_holds"]``; tests call this helper.
        """
        from repro.experiments.artifacts import claim_verdict

        if not claim_verdict(self.summary):
            raise AssertionError(
                f"experiment {self.experiment_id} reports the paper claim does not hold: "
                f"{self.summary!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view of the whole result (CLI ``--json`` artifact)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [json_safe(row) for row in self.rows],
            "notes": list(self.notes),
            "summary": json_safe(self.summary),
        }


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1e6 or abs(cell) < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table."""
    str_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:  # pragma: no cover - ragged rows are a programming error
                widths.append(len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    body = [line(list(headers)), separator]
    body.extend(line(row) for row in str_rows)
    return "\n".join(body)


def render_result(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as a plain-text report section."""
    parts = [f"[{result.experiment_id}] {result.title}", ""]
    if result.rows:
        parts.append(format_table(result.headers, result.rows))
    if result.summary:
        parts.append("")
        parts.append("summary:")
        for key, value in result.summary.items():
            parts.append(f"  {key}: {_format_cell(value)}")
    if result.notes:
        parts.append("")
        for note in result.notes:
            parts.append(f"note: {note}")
    return "\n".join(parts)


def result_from_payload(payload: Mapping[str, object]) -> ExperimentResult:
    """Reconstruct an :class:`ExperimentResult` from a stored JSON payload.

    The inverse of :meth:`ExperimentResult.to_dict` up to JSON round-tripping
    (tuples come back as lists, NumPy scalars as plain numbers).  Lets
    analysis consumers and the report renderers work from an artifact store
    without re-running the experiment.

    Parameters
    ----------
    payload : mapping
        A serial ``--json`` artifact or a store record's ``"payload"`` field.

    Returns
    -------
    ExperimentResult
        A result equivalent to the one the original run produced.
    """
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        headers=list(payload["headers"]),
        rows=[list(row) for row in payload["rows"]],
        notes=list(payload.get("notes", [])),
        summary=dict(payload.get("summary", {})),
    )


def markdown_escape(text: str) -> str:
    # Escape the characters our content actually trips over: table pipes and
    # emphasis stars ("the 2*3*4 mesh" must not italicise), plus backslash
    # and backticks so escapes themselves round-trip.  Intraword underscores
    # (S_4, D_n) are safe in CommonMark and stay readable unescaped.
    return (
        text.replace("\\", "\\\\")
        .replace("|", "\\|")
        .replace("*", "\\*")
        .replace("`", "\\`")
    )


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured Markdown table (cells formatted like the text tables)."""
    lines = [
        "| " + " | ".join(markdown_escape(str(h)) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(markdown_escape(_format_cell(cell)) for cell in row) + " |"
        )
    return "\n".join(lines)


def _params_inline(params: Mapping[str, object]) -> str:
    if not params:
        return "run() defaults"
    return ", ".join(f"{key}={params[key]!r}" for key in sorted(params))


def _report_sections(records: Sequence[Mapping[str, object]]):
    """Shared structure of the Markdown and HTML reports.

    Yields ``(payload, record)`` pairs in the given order; the caller renders.
    """
    for record in records:
        yield record["payload"], record


def render_markdown_report(
    records: Sequence[Mapping[str, object]], title: str = "Experiment results"
) -> str:
    """Render stored artifact records as one static Markdown report.

    Parameters
    ----------
    records : sequence of mapping
        Store records (:func:`repro.experiments.artifacts.build_record`),
        already in presentation order (see
        :func:`repro.experiments.runner.registry_sorted`).
    title : str, optional
        Page heading.

    Returns
    -------
    str
        A Markdown document: run overview table (experiment, profile,
        claim, rows, wall-clock), the environment stamp, then one section per
        experiment with its full table, summary and notes.
    """
    from repro.experiments.artifacts import claim_verdict

    lines = [f"# {title}", ""]
    overview_rows = []
    total_elapsed = 0.0
    for payload, record in _report_sections(records):
        elapsed = float(record.get("elapsed_seconds", 0.0))
        total_elapsed += elapsed
        overview_rows.append(
            (
                payload["experiment_id"],
                payload["profile"],
                "holds" if claim_verdict(payload["summary"]) else "FAILS",
                len(payload["rows"]),
                f"{elapsed:.3f}",
            )
        )
    lines.append(
        f"{len(records)} stored artifact(s), total recorded wall-clock "
        f"{total_elapsed:.3f} s."
    )
    lines.append("")
    lines.append(
        format_markdown_table(
            ["experiment", "profile", "claim", "rows", "wall-clock (s)"], overview_rows
        )
    )
    lines.append("")

    environments = {
        tuple(sorted((record.get("environment") or {}).items())) for record in records
    }
    if environments:
        lines.append("## Environment")
        lines.append("")
        # Sort by repr: stamp values may mix strings and None (e.g. a store
        # holding runs with and without NumPy), which plain tuple comparison
        # cannot order.
        for env_items in sorted(environments, key=repr):
            env = dict(env_items)
            lines.append(
                "- "
                + ", ".join(f"{key}: {env[key]}" for key in sorted(env) if env[key] is not None)
            )
        lines.append("")

    for payload, record in _report_sections(records):
        lines.append(
            f"## [{payload['experiment_id']}] {markdown_escape(payload['title'])}"
        )
        lines.append("")
        lines.append(
            f"*profile:* `{payload['profile']}` &nbsp; *params:* "
            f"`{_params_inline(payload['params'])}` &nbsp; *wall-clock:* "
            f"{float(record.get('elapsed_seconds', 0.0)):.3f} s"
        )
        lines.append("")
        if payload["rows"]:
            lines.append(format_markdown_table(payload["headers"], payload["rows"]))
            lines.append("")
        if payload["summary"]:
            lines.append("**Summary**")
            lines.append("")
            for key, value in payload["summary"].items():
                lines.append(
                    f"- {markdown_escape(str(key))}: "
                    f"{markdown_escape(_format_cell(value))}"
                )
            lines.append("")
        for note in payload.get("notes", []):
            lines.append(f"> {markdown_escape(note)}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_HTML_STYLE = """\
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 2rem auto;
       max-width: 60rem; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .9rem; }
th, td { border: 1px solid #c5c5d2; padding: .25rem .6rem; text-align: left; }
th { background: #eef0f6; }
code { background: #f3f4f8; padding: .1rem .25rem; border-radius: 3px; }
.meta { color: #555; font-size: .85rem; }
.fails { color: #b00020; font-weight: bold; }
blockquote { color: #555; border-left: 3px solid #c5c5d2; margin-left: 0;
             padding-left: .75rem; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    from html import escape

    out = ["<table>", "<tr>"]
    out.extend(f"<th>{escape(str(h))}</th>" for h in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        out.extend(f"<td>{escape(_format_cell(cell))}</td>" for cell in row)
        out.append("</tr>")
    out.append("</table>")
    return out


def render_html_report(
    records: Sequence[Mapping[str, object]], title: str = "Experiment results"
) -> str:
    """Render stored artifact records as one standalone static HTML page.

    Same content as :func:`render_markdown_report`; the page embeds its own
    stylesheet and references no external assets, so it can be opened from
    disk or dropped into any static host.
    """
    from html import escape as esc

    from repro.experiments.artifacts import claim_verdict

    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head>",
        "<body>",
        f"<h1>{esc(title)}</h1>",
    ]
    total_elapsed = sum(float(r.get("elapsed_seconds", 0.0)) for r in records)
    parts.append(
        f"<p class=\"meta\">{len(records)} stored artifact(s), total recorded "
        f"wall-clock {total_elapsed:.3f}&nbsp;s.</p>"
    )
    overview_rows = [
        (
            payload["experiment_id"],
            payload["profile"],
            "holds" if claim_verdict(payload["summary"]) else "FAILS",
            len(payload["rows"]),
            f"{float(record.get('elapsed_seconds', 0.0)):.3f}",
        )
        for payload, record in _report_sections(records)
    ]
    parts.extend(
        _html_table(["experiment", "profile", "claim", "rows", "wall-clock (s)"], overview_rows)
    )

    environments = {
        tuple(sorted((record.get("environment") or {}).items())) for record in records
    }
    if environments:
        parts.append("<h2>Environment</h2><ul>")
        for env_items in sorted(environments, key=repr):
            env = dict(env_items)
            parts.append(
                "<li class=\"meta\">"
                + esc(
                    ", ".join(
                        f"{key}: {env[key]}" for key in sorted(env) if env[key] is not None
                    )
                )
                + "</li>"
            )
        parts.append("</ul>")

    for payload, record in _report_sections(records):
        parts.append(f"<h2>[{esc(payload['experiment_id'])}] {esc(payload['title'])}</h2>")
        parts.append(
            "<p class=\"meta\">profile: <code>"
            + esc(payload["profile"])
            + "</code> &middot; params: <code>"
            + esc(_params_inline(payload["params"]))
            + "</code> &middot; wall-clock: "
            + f"{float(record.get('elapsed_seconds', 0.0)):.3f}&nbsp;s</p>"
        )
        if payload["rows"]:
            parts.extend(_html_table(payload["headers"], payload["rows"]))
        if payload["summary"]:
            parts.append("<ul>")
            for key, value in payload["summary"].items():
                rendered = esc(f"{key}: {_format_cell(value)}")
                if key == "claim_holds" and not value:
                    rendered = f'<span class="fails">{rendered}</span>'
                parts.append(f"<li>{rendered}</li>")
            parts.append("</ul>")
        for note in payload.get("notes", []):
            parts.append(f"<blockquote>{esc(note)}</blockquote>")
    parts.extend(["</body>", "</html>"])
    return "\n".join(parts) + "\n"
