"""End-to-end integration: workflows, classroom, live HTTP."""

import pytest

from repro.core import Classroom, PortalWorkflow
from repro.portal import PortalClient
from repro.portal.server import start_background


class TestPortalWorkflow:
    def test_develop_and_run_success(self, student_client):
        flow = PortalWorkflow(student_client)
        outcome = flow.develop_and_run(
            "greet.c",
            '#include <stdio.h>\nint main(void){ printf("workflow ok\\n"); return 0; }\n',
        )
        assert outcome.ok
        assert outcome.stdout == ["workflow ok"]

    def test_develop_and_run_compile_failure(self, student_client):
        flow = PortalWorkflow(student_client)
        outcome = flow.develop_and_run("broken.c", "int main( {\n")
        assert not outcome.compiled and not outcome.ok

    def test_edit_compile_loop(self, student_client):
        flow = PortalWorkflow(student_client)
        versions = [
            "int main( { broken\n",
            '#include <stdio.h>\nint main(void){ printf("fixed!\\n"); return 0; }\n',
        ]
        outcomes = flow.edit_compile_loop("iter.c", versions)
        assert [o.compiled for o in outcomes] == [False, True]
        assert outcomes[1].stdout == ["fixed!"]

    def test_runtime_failure_reported(self, student_client):
        flow = PortalWorkflow(student_client)
        outcome = flow.develop_and_run(
            "crash.c",
            "#include <stdlib.h>\nint main(void){ exit(7); }\n",
        )
        assert outcome.compiled and not outcome.ok
        assert outcome.state == "failed" and outcome.exit_code == 7


class TestLiveHttpServer:
    def test_full_workflow_over_tcp(self, portal_app):
        httpd, url = start_background(portal_app)
        try:
            client = PortalClient(base_url=url)
            client.login("admin", "admin-pass")
            client.create_user("nethacker", "password1")
            client.logout()

            client = PortalClient(base_url=url)
            client.login("nethacker", "password1")
            outcome = PortalWorkflow(client).develop_and_run(
                "net.c",
                '#include <stdio.h>\nint main(void){ printf("over tcp\\n"); return 0; }\n',
            )
            assert outcome.ok and outcome.stdout == ["over tcp"]
            files = client.list_files()
            assert any(f["name"] == "net.c" for f in files)
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_login_failure_over_tcp(self, portal_app):
        httpd, url = start_background(portal_app)
        try:
            client = PortalClient(base_url=url)
            with pytest.raises(Exception):
                client.login("nobody", "nothing")
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestClassroom:
    @pytest.fixture(scope="class")
    def classroom(self, tmp_path_factory):
        return Classroom(n_students=4, root_dir=str(tmp_path_factory.mktemp("class")))

    def test_roster_created(self, classroom):
        client = PortalClient(app=classroom.app)
        client.login("student00", "student00-pass")
        assert client.whoami()["username"] == "student00"

    def test_instructor_account(self, classroom):
        client = PortalClient(app=classroom.app)
        assert client.login("instructor", "teach-pass")["role"] == "instructor"

    def test_lab_session_portal_runs_and_demos(self, classroom):
        report = classroom.run_lab_session("lab1", sample_students=2)
        assert report.portal_runs_ok == 2
        assert report.fixed_demo_passed
        assert not report.broken_demo_passed  # the race bit at seed 2

    def test_integration_plan_lists_added_topics(self, classroom):
        plan = classroom.integration_plan()
        assert "ADDED" in plan and "UMA" in plan and "lab3" in plan

    def test_semester_report_tables(self, tmp_path_factory):
        room = Classroom(n_students=19, root_dir=str(tmp_path_factory.mktemp("c2")))
        report = room.semester_report()
        assert report.cohort_size == 19
        assert "Table 1" in report.table1()
        # memoised
        assert room.semester_report() is report


class TestRunAllLabs:
    def test_every_lab_session_reports(self, tmp_path_factory):
        room = Classroom(n_students=2, root_dir=str(tmp_path_factory.mktemp("all")))
        reports = room.run_all_labs(sample_students=1)
        assert [r.lab_id for r in reports] == [f"lab{i}" for i in range(1, 8)]
        assert all(r.fixed_demo_passed for r in reports)
        assert all(r.portal_runs_ok == 1 for r in reports)
