#!/usr/bin/env python3
"""Quickstart: the portal's core user story, end to end.

Creates the portal over the paper's 4×16-node cluster, registers a
student, and walks the Section-II workflow: upload source → compile →
run on the cluster → monitor the output → manage files.  Finally it
serves the same app over real HTTP for a round trip through a socket.

Run:  python examples/quickstart.py
"""

import tempfile

from repro.portal import PortalClient, make_default_app
from repro.portal.server import start_background

HELLO_C = """\
#include <stdio.h>
int main(void) {
    printf("Hello from the UHD cluster portal!\\n");
    return 0;
}
"""

INTERACTIVE_C = """\
#include <stdio.h>
int main(void) {
    char name[64];
    if (fgets(name, sizeof name, stdin))
        printf("The cluster greets %s", name);
    return 0;
}
"""


def main() -> None:
    home_root = tempfile.mkdtemp(prefix="portal_quickstart_")
    print(f"== Booting portal (user homes under {home_root}) ==")
    app = make_default_app(home_root)

    # --- admin: create a student account -------------------------------
    admin = PortalClient(app=app)
    admin.login("admin", "admin-pass")
    admin.create_user("alice", "alice-pass", full_name="Alice the Student")
    admin.logout()

    # --- student: upload, compile, run, monitor ------------------------
    alice = PortalClient(app=app)
    alice.login("alice", "alice-pass")
    print("logged in as:", alice.whoami())

    alice.write_file("hello.c", HELLO_C)
    report = alice.compile("hello.c")
    print(f"\ncompiled with {report['toolchain']}: ok={report['ok']}")

    resp = alice.submit_job("hello.c")
    job_id = resp["job"]["id"]
    desc = alice.wait_for_job(job_id)
    output = alice.job_output(job_id)
    print(f"job {job_id}: {desc['state']} (exit {desc['exit_code']})")
    print("stdout:", output["stdout"])

    # --- interactive job: provide stdin through the portal -------------
    alice.write_file("greet.c", INTERACTIVE_C)
    resp = alice.submit_job("greet.c", stdin="Alice\n")
    alice.wait_for_job(resp["job"]["id"])
    print("interactive:", alice.job_output(resp["job"]["id"])["stdout"])

    # --- file manager: the paper's copy/move/rename tour ---------------
    alice.mkdir("projects")
    alice.copy("hello.c", "projects/hello_v2.c")
    alice.rename("projects/hello_v2.c", "renamed.c")
    alice.move("projects/renamed.c", "hello_backup.c")
    print("\nfiles:", sorted(f["name"] for f in alice.list_files()))

    # --- cluster status -------------------------------------------------
    status = alice.cluster_status()
    grid = status["grid"]
    print(f"\ncluster: {grid['cores_free']}/{grid['cores_total']} cores free "
          f"across {len(grid['segments'])} segments")

    # --- the same portal over real HTTP ---------------------------------
    httpd, url = start_background(app)
    try:
        web = PortalClient(base_url=url)
        web.login("alice", "alice-pass")
        print(f"\nover HTTP at {url}: {len(web.jobs())} job(s) in history")
    finally:
        httpd.shutdown()
        httpd.server_close()
    print("\nQuickstart complete.")


if __name__ == "__main__":
    main()
