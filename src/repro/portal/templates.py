"""Minimal HTML rendering for the portal's human-facing pages.

The portal is primarily a JSON API (driven by
:class:`~repro.portal.client.PortalClient` and by tests); these pages
give the browser-facing "intuitive navigation" the paper requires
without pulling in a template engine: a shared layout, a login form, and
a dashboard that lists files, jobs and cluster load.
"""

from __future__ import annotations

import html
from typing import Iterable

__all__ = ["render_page", "login_page", "dashboard_page", "job_page", "trace_page"]

_LAYOUT = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title} — UHD Cluster Portal</title>
<style>
 body {{ font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #222; }}
 header {{ border-bottom: 2px solid #336; margin-bottom: 1rem; }}
 h1 {{ color: #336; }}
 table {{ border-collapse: collapse; width: 100%; }}
 th, td {{ text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #ddd; }}
 code {{ background: #f4f4f8; padding: 0 .25rem; }}
 .state-completed {{ color: #060; }} .state-failed {{ color: #a00; }}
 .state-running {{ color: #06c; }} .state-queued {{ color: #b60; }}
 .state-timeout {{ color: #a00; }} .state-retrying {{ color: #b60; }}
 .degraded {{ background: #fee; border: 1px solid #a00; color: #a00;
              padding: .5rem .8rem; }}
 form.inline {{ display: inline; }}
 .load {{ font-variant-numeric: tabular-nums; }}
</style>
</head>
<body>
<header><h1>{title}</h1><nav>{nav}</nav></header>
{body}
<footer><hr><small>Cluster Computing Portal — reproduction of Lin (IPPS 2013)</small></footer>
</body>
</html>"""


def _esc(s: object) -> str:
    return html.escape(str(s), quote=True)


def render_page(title: str, body: str, nav: str = "") -> str:
    """Wrap ``body`` (already-safe HTML) in the shared layout."""
    return _LAYOUT.format(title=_esc(title), body=body, nav=nav)


def login_page(error: str = "") -> str:
    """The login form."""
    err = f'<p style="color:#a00">{_esc(error)}</p>' if error else ""
    body = f"""
{err}
<form method="post" action="/login">
  <label>Username <input name="username" autofocus></label><br><br>
  <label>Password <input name="password" type="password"></label><br><br>
  <button type="submit">Log in</button>
</form>"""
    return render_page("Log in", body)


def _rows(cells: Iterable[Iterable[object]]) -> str:
    return "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>" for row in cells
    )


def dashboard_page(
    username: str,
    files: list[dict],
    jobs: list[dict],
    cluster: dict,
    health: dict | None = None,
) -> str:
    """Files + jobs + cluster status overview.

    ``health`` is the distributor's :class:`HealthMonitor` snapshot; when
    the cluster is running degraded (too much capacity down/suspect) a
    warning banner leads the page so students know why jobs are queueing.
    """
    banner = ""
    if health is not None and health.get("degraded"):
        detail = ", ".join(health.get("down_nodes", []) + health.get("suspect_nodes", []))
        banner = (
            '<p class="degraded">&#9888; Cluster degraded: '
            f"{health.get('cores_up', '?')} of {health.get('cores_total', '?')} cores in service"
            f"{' (' + _esc(detail) + ')' if detail else ''} — jobs may wait longer.</p>"
        )
    file_rows = _rows(
        (("📁 " if f["is_dir"] else "") + f["name"], f["size"], f["path"]) for f in files
    )
    job_rows = "".join(
        f"<tr><td><code>{_esc(j['id'])}</code></td><td>{_esc(j['name'])}</td>"
        f"<td class='state-{_esc(j['state'])}'>{_esc(j['state'])}</td>"
        f"<td>{_esc(j['kind'])}</td><td>{_esc(j.get('exit_code'))}</td></tr>"
        for j in jobs
    )
    seg_rows = _rows(
        (name, f"{s['cores_free']}/{s['cores_total']} free", f"{s['load']:.0%}")
        for name, s in cluster.get("segments", {}).items()
    )
    body = f"""
{banner}
<p>Signed in as <strong>{_esc(username)}</strong> —
<form class="inline" method="post" action="/logout"><button>log out</button></form></p>

<h2>Your files</h2>
<table><tr><th>Name</th><th>Size</th><th>Path</th></tr>{file_rows or '<tr><td colspan=3>(empty)</td></tr>'}</table>

<h2>Your jobs</h2>
<table><tr><th>Id</th><th>Name</th><th>State</th><th>Kind</th><th>Exit</th></tr>{job_rows or '<tr><td colspan=5>(none)</td></tr>'}</table>

<h2>Cluster</h2>
<p class="load">Total load: {cluster.get('load', 0):.0%} — {cluster.get('cores_free', '?')} of {cluster.get('cores_total', '?')} cores free</p>
<table><tr><th>Segment</th><th>Cores</th><th>Load</th></tr>{seg_rows}</table>
"""
    return render_page("Dashboard", body)


def lint_block(lint: dict | None) -> str:
    """The pre-submit static-analysis section of the job page.

    Empty string when no report is attached (non-Python source) or the
    report is clean; otherwise a diagnostics table, each row tagged with
    the lab concept the finding violates.
    """
    if not lint:
        return ""
    diags = lint.get("diagnostics") or []
    parse_error = lint.get("parse_error")
    if not diags and not parse_error:
        return ""
    if parse_error:
        return f"<h2>Concurrency lint</h2><p class='state-failed'>{_esc(parse_error)}</p>"
    state = {"error": "state-failed", "warning": "state-retrying"}
    rows = "".join(
        f"<tr><td>{_esc(d['line'])}</td>"
        f"<td class='{state.get(d['severity'], '')}'>{_esc(d['severity'])}</td>"
        f"<td><code>{_esc(d['rule'])}</code></td>"
        f"<td>{_esc(d['message'])}</td><td>{_esc(d['concept'])}</td></tr>"
        for d in diags
    )
    return f"""
<h2>Concurrency lint</h2>
<p>Static analysis of the submitted program (advisory — the run was not blocked).</p>
<table><tr><th>Line</th><th>Severity</th><th>Rule</th><th>Finding</th><th>Concept</th></tr>
{rows}</table>"""


def job_page(
    job: dict,
    stdout_lines: list[str] | str,
    stderr_lines: list[str] | str,
    lint: dict | None = None,
) -> str:
    """One job's detail page: metadata, placement, streams, input box.

    The stream arguments accept either a list of lines or pre-joined
    text.  ``lint`` is the
    pre-submit static-analysis report dict, rendered between the
    attempts table and the output streams when it has findings.
    """
    placement_rows = _rows((node, cores) for node, cores in sorted(job.get("placement", {}).items()))
    out = stdout_lines if isinstance(stdout_lines, str) else "\n".join(stdout_lines)
    err = stderr_lines if isinstance(stderr_lines, str) else "\n".join(stderr_lines)
    out_text = _esc(out) or "(no output yet)"
    err_text = _esc(err)
    input_form = ""
    if job["state"] == "running" and job["kind"] == "interactive":
        input_form = f"""
<h2>Send input</h2>
<form method="post" action="/jobs/{_esc(job['id'])}/input">
  <input name="text" placeholder="stdin line"> <button>Send</button>
</form>"""
    err_block = f"<h2>stderr</h2><pre>{err_text}</pre>" if err_text else ""
    attempts = job.get("attempts") or []
    attempts_block = ""
    if len(attempts) > 1 or (attempts and attempts[0]["outcome"] != job["state"]):
        attempt_rows = "".join(
            f"<tr><td>{_esc(a['no'])}</td>"
            f"<td>{_esc(', '.join(sorted(a.get('placement', {})))) or '—'}</td>"
            f"<td class='state-{_esc(a['outcome'])}'>{_esc(a['outcome'])}</td>"
            f"<td>{_esc(a.get('error') or '')}</td>"
            f"<td>{_esc(a['backoff_s'] if a.get('backoff_s') is not None else '')}</td></tr>"
            for a in attempts
        )
        attempts_block = f"""
<h2>Attempts</h2>
<table><tr><th>#</th><th>Nodes</th><th>Outcome</th><th>Error</th><th>Backoff (s)</th></tr>
{attempt_rows}</table>"""
    body = f"""
<p><a href="/">&larr; dashboard</a></p>
<table>
 <tr><th>Id</th><td><code>{_esc(job['id'])}</code></td></tr>
 <tr><th>Name</th><td>{_esc(job['name'])}</td></tr>
 <tr><th>Owner</th><td>{_esc(job['owner'])}</td></tr>
 <tr><th>Kind</th><td>{_esc(job['kind'])}</td></tr>
 <tr><th>State</th><td class="state-{_esc(job['state'])}">{_esc(job['state'])}</td></tr>
 <tr><th>Exit code</th><td>{_esc(job.get('exit_code'))}</td></tr>
 <tr><th>Attempt</th><td>{_esc(job.get('attempt', 1))} ({_esc(job.get('retries', 0))} retries)</td></tr>
 <tr><th>Wait / runtime</th><td>{_esc(job.get('wait_s'))} s / {_esc(job.get('runtime_s'))} s</td></tr>
 <tr><th>Trace</th><td><a href="/debug/trace/{_esc(job['id'])}">span tree</a></td></tr>
</table>
<h2>Placement</h2>
<table><tr><th>Node</th><th>Cores</th></tr>{placement_rows or '<tr><td colspan=2>(not placed)</td></tr>'}</table>
{attempts_block}
{lint_block(lint)}
<h2>stdout</h2>
<pre>{out_text}</pre>
{err_block}
{input_form}
"""
    return render_page(f"Job {job['id']}", body)


def _span_items(span: dict, depth: int = 0) -> str:
    """Nested <li> rendering of one span subtree."""
    dur = span.get("duration_s")
    dur_text = f"{dur:.6g}s" if dur is not None else "open"
    attrs = span.get("attrs") or {}
    attr_text = " ".join(f"{_esc(k)}={_esc(v)}" for k, v in attrs.items())
    children = span.get("children") or []
    inner = "".join(_span_items(c, depth + 1) for c in children)
    sub = f"<ul>{inner}</ul>" if inner else ""
    return (
        f"<li><code>{_esc(span['name'])}</code> "
        f'<span class="load">{dur_text}</span>'
        f"{' — <small>' + attr_text + '</small>' if attr_text else ''}{sub}</li>"
    )


def trace_page(job_id: str, trace: dict) -> str:
    """Span tree for one job: retries show up as sibling attempt spans."""
    body = f"""
<p><a href="/jobs/{_esc(job_id)}">&larr; job {_esc(job_id)}</a> —
<a href="/debug/trace/{_esc(job_id)}?format=json">JSON</a></p>
<ul>{_span_items(trace)}</ul>
"""
    return render_page(f"Trace {job_id}", body)
