"""Portal JSON API driven through the client (in-process WSGI)."""

import pytest

from repro._errors import PortalError
from repro.portal import PortalClient


class TestAuthEndpoints:
    def test_login_logout_whoami(self, portal_app):
        c = PortalClient(app=portal_app)
        c.login("admin", "admin-pass")
        assert c.whoami()["role"] == "admin"
        c.logout()
        with pytest.raises(PortalError):
            c.whoami()

    def test_bad_credentials_401(self, portal_app):
        c = PortalClient(app=portal_app)
        with pytest.raises(PortalError, match="401"):
            c.login("admin", "wrong")

    def test_unauthenticated_requests_rejected(self, portal_app):
        c = PortalClient(app=portal_app)
        for call in (c.list_files, c.jobs, c.cluster_status):
            with pytest.raises(PortalError, match="401"):
                call()

    def test_student_cannot_create_users(self, student_client):
        with pytest.raises(PortalError, match="403"):
            student_client.create_user("eve", "password1")

    def test_admin_creates_roles(self, admin_client, portal_app):
        admin_client.create_user("prof", "teach-pass", role="instructor")
        prof = PortalClient(app=portal_app)
        assert prof.login("prof", "teach-pass")["role"] == "instructor"

    def test_duplicate_user_rejected(self, admin_client):
        admin_client.create_user("dup", "password1")
        with pytest.raises(PortalError):
            admin_client.create_user("dup", "password1")


class TestFileEndpoints:
    def test_write_list_read(self, student_client):
        student_client.write_file("hello.txt", "content here")
        files = student_client.list_files()
        assert [f["name"] for f in files] == ["hello.txt"]
        assert student_client.read_file("hello.txt") == "content here"

    def test_download_binary(self, student_client):
        payload = bytes(range(256))
        student_client.write_file("blob.bin", payload)
        assert student_client.download_file("blob.bin") == payload

    def test_multipart_upload_multiple_files(self, student_client):
        result = student_client.upload({"a.c": b"int main(void){return 0;}", "b.txt": b"notes"})
        assert {s["name"] for s in result["saved"]} == {"a.c", "b.txt"}
        assert student_client.read_file("b.txt") == "notes"

    def test_mkdir_copy_move_rename_delete(self, student_client):
        c = student_client
        c.write_file("f.txt", "x")
        c.mkdir("d")
        c.copy("f.txt", "d/f2.txt")
        c.move("d/f2.txt", "g.txt")
        assert c.rename("g.txt", "h.txt") == "h.txt"
        c.delete("h.txt")
        names = {f["name"] for f in c.list_files()}
        assert names == {"f.txt", "d"}

    def test_traversal_rejected_via_api(self, student_client):
        with pytest.raises(PortalError):
            student_client.read_file("../admin/anything")

    def test_missing_path_param(self, student_client):
        with pytest.raises(PortalError, match="400"):
            student_client.write_file("", "x")


class TestCompileAndJobs:
    C_OK = '#include <stdio.h>\nint main(void){ printf("ran on cluster\\n"); return 0; }\n'
    C_BAD = "int main(void){ syntax error here\n"

    def test_compile_success_report(self, student_client):
        student_client.write_file("ok.c", self.C_OK)
        report = student_client.compile("ok.c")
        assert report["ok"] and report["language"] == "c"

    def test_compile_failure_is_400_with_diagnostics(self, student_client):
        student_client.write_file("bad.c", self.C_BAD)
        with pytest.raises(PortalError) as e:
            student_client.compile("bad.c")
        assert "400" in str(e.value)

    def test_submit_run_and_poll_output(self, student_client):
        student_client.write_file("run.c", self.C_OK)
        resp = student_client.submit_job("run.c")
        job_id = resp["job"]["id"]
        desc = student_client.wait_for_job(job_id, timeout=60)
        assert desc["state"] == "completed" and desc["exit_code"] == 0
        out = student_client.job_output(job_id)
        assert out["stdout"] == ["ran on cluster"]
        # incremental polling: nothing new after the end
        again = student_client.job_output(job_id, since=out["next"])
        assert again["stdout"] == []

    def test_job_listing_scoped_to_owner(self, portal_app, admin_client, student_client):
        student_client.write_file("mine.c", self.C_OK)
        student_client.submit_job("mine.c")
        admin_client.create_user("other", "password1")
        other = PortalClient(app=portal_app)
        other.login("other", "password1")
        assert other.jobs() == []
        assert len(student_client.jobs()) == 1
        # admin sees everything
        assert len(admin_client.jobs()) == 1

    def test_foreign_job_access_forbidden(self, portal_app, admin_client, student_client):
        student_client.write_file("mine.c", self.C_OK)
        job_id = student_client.submit_job("mine.c")["job"]["id"]
        admin_client.create_user("intruder", "password1")
        intruder = PortalClient(app=portal_app)
        intruder.login("intruder", "password1")
        with pytest.raises(PortalError, match="403"):
            intruder.job(job_id)

    def test_instructor_sees_student_jobs(self, portal_app, admin_client, student_client):
        student_client.write_file("mine.c", self.C_OK)
        job_id = student_client.submit_job("mine.c")["job"]["id"]
        admin_client.create_user("prof2", "teach-pass", role="instructor")
        prof = PortalClient(app=portal_app)
        prof.login("prof2", "teach-pass")
        assert prof.job(job_id)["id"] == job_id

    def test_interactive_job_stdin_roundtrip(self, student_client):
        src = (
            "#include <stdio.h>\n"
            "int main(void){ char b[64]; if (fgets(b, 64, stdin)) printf(\"echo: %s\", b); return 0; }\n"
        )
        student_client.write_file("inter.c", src)
        resp = student_client.submit_job("inter.c", stdin="typed input\n")
        desc = student_client.wait_for_job(resp["job"]["id"], timeout=60)
        out = student_client.job_output(resp["job"]["id"])
        assert out["stdout"] == ["echo: typed input"]

    def test_cancel_endpoint(self, student_client):
        student_client.write_file(
            "slow.c",
            "#include <unistd.h>\nint main(void){ sleep(30); return 0; }\n",
        )
        resp = student_client.submit_job("slow.c", timeout_s=60)
        job_id = resp["job"]["id"]
        assert student_client.cancel_job(job_id)

    def test_a_job_the_backend_cannot_launch_fails_and_the_next_runs(self, student_client):
        # the monolith's subprocess backend refuses a request with no argv
        submit = student_client._call
        job = submit("POST", "/api/jobs", {"name": "sim", "sim_duration": 1.0})["job"]
        desc = student_client.wait_for_job(job["id"], timeout=10)
        assert desc["state"] == "failed"
        assert desc["error"].startswith("launch failed: ") and "has no argv" in desc["error"]
        echo = submit("POST", "/api/jobs", {"name": "echo", "argv": ["/bin/echo", "hi"]})["job"]
        desc = student_client.wait_for_job(echo["id"], timeout=30)
        assert desc["state"] == "completed"
        assert student_client.job_output(echo["id"])["stdout"] == ["hi"]
        assert student_client.cluster_status()["grid"]["cores_free"] == 8

    def test_unknown_job_404(self, student_client):
        with pytest.raises(PortalError, match="404"):
            student_client.job("job-000000")

    def test_cluster_status(self, student_client):
        status = student_client.cluster_status()
        assert status["grid"]["cores_total"] == 8
        assert status["policy"] == "fifo"


class TestHtmlPages:
    def _get(self, app, path, cookie=""):
        import io

        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": "0",
            "wsgi.input": io.BytesIO(b""),
        }
        if cookie:
            environ["HTTP_COOKIE"] = cookie
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = dict(headers)

        body = b"".join(app(environ, start_response))
        return captured, body

    def test_root_redirects_anonymous_to_login(self, portal_app):
        cap, _ = self._get(portal_app, "/")
        assert cap["status"].startswith("302")
        assert cap["headers"]["Location"] == "/login"

    def test_login_page_renders(self, portal_app):
        cap, body = self._get(portal_app, "/login")
        assert cap["status"].startswith("200")
        assert b"<form" in body and b"password" in body

    def test_dashboard_renders_for_session(self, portal_app):
        # Log in through the API to mint a session token, reuse as cookie.
        c = PortalClient(app=portal_app)
        token = c.login("admin", "admin-pass")["token"]
        cap, body = self._get(portal_app, "/", cookie=f"portal_session={token}")
        assert cap["status"].startswith("200")
        assert b"admin" in body and b"Cluster" in body

    def test_unknown_route_404_json(self, portal_app):
        cap, body = self._get(portal_app, "/totally/unknown")
        assert cap["status"].startswith("404")


class TestLiveApiInput:
    def test_send_input_endpoint_mid_run(self, student_client):
        """The /input endpoint feeds a *running* interactive job."""
        import time

        src = (
            "#include <stdio.h>\n"
            "int main(void){ char b[64];\n"
            '  printf("ready\\n"); fflush(stdout);\n'
            '  if (fgets(b, 64, stdin)) printf("api gave: %s", b);\n'
            "  return 0; }\n"
        )
        student_client.write_file("api_input.c", src)
        resp = student_client.submit_job("api_input.c", kind="interactive", timeout_s=30)
        job_id = resp["job"]["id"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            out = student_client.job_output(job_id)
            if "ready" in out["stdout"]:
                break
            time.sleep(0.05)
        student_client.send_input(job_id, "from-the-api\n")
        desc = student_client.wait_for_job(job_id, timeout=30)
        out = student_client.job_output(job_id)
        assert desc["state"] == "completed"
        assert "api gave: from-the-api" in out["stdout"]

    def test_input_to_finished_job_rejected(self, student_client):
        student_client.write_file(
            "done.c", "#include <stdio.h>\nint main(void){ return 0; }\n"
        )
        resp = student_client.submit_job("done.c")
        job_id = resp["job"]["id"]
        student_client.wait_for_job(job_id, timeout=30)
        with pytest.raises(PortalError):
            student_client.send_input(job_id, "too late\n")
