"""The three failing rules of tests/base_ab.py, on synthetic inputs: a CLI
exit code that moved, a probe state whose raising flipped, and a test ID
that vanished unnamed in CHANGES.md; and the memory ledger's roots."""

import base_ab

DIGEST = "0" * 64


def _cli(*runs):
    return [f"{code} {digest} {label}" for code, digest, label in runs]


class TestCliRule:
    def test_moved_report_passes(self, capsys):
        before = _cli((0, DIGEST, "verify --s 2"), (2, DIGEST, "spectrum --s -1"))
        after = _cli((0, "1" * 64, "verify --s 2"), (2, DIGEST, "spectrum --s -1"))
        assert not base_ab.cli_rule(before, after)
        assert "moved: verify --s 2\n" in capsys.readouterr().out

    def test_moved_exit_code_fails(self, capsys):
        before = _cli((0, DIGEST, "verify --s 0.4 --tol 1e-15"))
        after = _cli((1, DIGEST, "verify --s 0.4 --tol 1e-15"))
        assert base_ab.cli_rule(before, after)
        assert "verify --s 0.4 --tol 1e-15 (exit code 0 -> 1)" in capsys.readouterr().out

    def test_traceback_in_place_of_a_failed_verdict_fails(self, capsys):
        before = _cli((1, DIGEST, "verify --s 0.4 --tol 1e-15"))
        after = _cli(("traceback:RuntimeError", DIGEST, "verify --s 0.4 --tol 1e-15"))
        assert base_ab.cli_rule(before, after)
        assert "(exit code 1 -> traceback:RuntimeError)" in capsys.readouterr().out

    def test_runs_in_one_tree_only_pass(self, capsys):
        before = _cli((0, DIGEST, "bands --s 2"))
        after = _cli((1, DIGEST, "table1 --s 2"))
        assert not base_ab.cli_rule(before, after)
        out = capsys.readouterr().out
        assert "gone: bands --s 2" in out and "new: table1 --s 2" in out


class TestProbeRule:
    def test_moved_values_pass(self):
        before = {"s=2.0 n=0": ("ok", "(1.0,)"), "s=2.0 n=1": ("NumericError", None)}
        after = {"s=2.0 n=0": ("ok", "(1.5,)"), "s=2.0 n=1": ("ConsistencyError", None)}
        assert not base_ab.probe_rule(before, after)

    def test_state_that_starts_to_raise_fails(self, capsys):
        before = {"s=8.0 edge=none n=37": ("ok", "(1.0,)")}
        after = {"s=8.0 edge=none n=37": ("NumericError", None)}
        assert base_ab.probe_rule(before, after)
        assert "s=8.0 edge=none n=37 (ok -> NumericError)" in capsys.readouterr().out

    def test_state_that_stops_raising_fails(self):
        before = {"s=8.0 edge=none n=37": ("NumericError", None)}
        after = {"s=8.0 edge=none n=37": ("ok", "(1.0,)")}
        assert base_ab.probe_rule(before, after)


class TestIdRule:
    IDS = {"tests/test_a.py::TestOld::test_x[1]", "tests/test_a.py::TestOld::test_x[2]",
           "tests/test_a.py::test_y"}

    def test_same_ids_pass(self):
        assert not base_ab.id_rule(self.IDS, set(self.IDS), "")

    def test_rename_named_in_changes_passes(self, capsys):
        after = {i.replace("TestOld", "TestNew") for i in self.IDS}
        changes = "renamed tests/test_a.py::TestOld::test_x and tests/test_a.py::test_y"
        assert not base_ab.id_rule(self.IDS, after, changes)
        assert "0 vanished IDs not named" in capsys.readouterr().out

    def test_rename_unnamed_in_changes_fails(self, capsys):
        after = {i.replace("TestOld", "TestNew") for i in self.IDS}
        assert base_ab.id_rule(self.IDS, after, "renamed tests/test_a.py::test_y")
        out = capsys.readouterr().out
        assert "vanished: tests/test_a.py::TestOld::test_x[1] (not named in CHANGES.md)" in out

    def test_fewer_tests_fail_even_when_named(self):
        after = self.IDS - {"tests/test_a.py::test_y"}
        assert base_ab.id_rule(self.IDS, after, "deleted tests/test_a.py::test_y")


class TestLedgerRoots:
    def test_equal_length_copies_of_each_src(self, tmp_path):
        roots = {"base": tmp_path / "b", "head": tmp_path / "a-much-longer-checkout"}
        for name, root in roots.items():
            (root / "src" / "scarf").mkdir(parents=True)
            (root / "src" / "scarf" / "__init__.py").write_text(f"TREE = {name!r}\n")
        ledger = base_ab.ledger_roots(roots, tmp_path / "scratch")
        assert len(str(ledger["base"])) == len(str(ledger["head"]))
        for name, root in ledger.items():
            assert (root / "src" / "scarf" / "__init__.py").read_text() == f"TREE = {name!r}\n"
