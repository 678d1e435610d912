"""True-positive / true-negative fixture pairs for every rule.

Fixtures are written into tmp_path fake trees (``src/repro/...``)
rather than committed as files, because CI lints the real ``src`` and
``tests`` directories and committed violations would fail the gate.
"""

from repro.analysis import lint_paths

from tests.analysis.test_driver import make_tree


def rules_hit(tmp_path, files, rules=None):
    root = make_tree(tmp_path, files)
    report = lint_paths([root / "src"], rules=rules, root=root)
    return [f.rule for f in report.findings], report


class TestFloatCompare:
    RULE = ["float-compare"]

    def test_tp_branch_decision_on_cost_values(self, tmp_path):
        src = (
            "def prune(cf, upper, stats):\n"
            "    if cf > upper:\n"
            "        stats.cuts += 1\n"
        )
        hits, report = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == ["float-compare"]
        assert "cf > upper" in report.findings[0].message

    def test_tp_while_decision(self, tmp_path):
        src = (
            "def drain(f, threshold):\n"
            "    while f <= threshold:\n"
            "        step()\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == ["float-compare"]

    def test_tn_numeric_literal_guard(self, tmp_path):
        src = "def check(length):\n    if length <= 0:\n        raise ValueError\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_running_extremum_update(self, tmp_path):
        src = (
            "def track(f, lower):\n"
            "    if f > lower:\n"
            "        lower = f\n"
            "    return lower\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_incumbent_replacement(self, tmp_path):
        src = (
            "def improve(child, best, best_len):\n"
            "    if child.makespan < best_len:\n"
            "        best_len = child.makespan\n"
            "        best = child\n"
            "    return best, best_len\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_non_cost_identifiers(self, tmp_path):
        src = "def cmp(a, b):\n    if a < b:\n        return a\n    return b\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_tolerance_module_itself(self, tmp_path):
        src = "def leq(f, bound):\n    if f <= bound:\n        return True\n    return False\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/tolerance.py": src}, self.RULE
        )
        assert hits == []


class TestLayering:
    RULE = ["layering"]

    def test_tp_upward_import(self, tmp_path):
        src = "from repro.parallel.hda import hda_astar_schedule\n"
        hits, report = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == ["layering"]
        assert "repro.search" in report.findings[0].message

    def test_tp_deferred_function_local_import(self, tmp_path):
        src = (
            "def load():\n"
            "    from repro.service.cache import ResultCache\n"
            "    return ResultCache\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/workloads/x.py": src}, self.RULE
        )
        assert hits == ["layering"]

    def test_tp_freestanding_package_importing_repro(self, tmp_path):
        src = "from repro.util.timing import Budget\n"
        hits, report = rules_hit(
            tmp_path, {"src/repro/obs/x.py": src}, self.RULE
        )
        assert hits == ["layering"]
        assert "freestanding" in report.findings[0].message

    def test_tp_relative_import_resolved(self, tmp_path):
        src = "from ..service import cache\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == ["layering"]

    def test_tp_unknown_package_flagged(self, tmp_path):
        src = "from repro.util.timing import Budget\n"
        hits, report = rules_hit(
            tmp_path, {"src/repro/newpkg/x.py": src}, self.RULE
        )
        assert hits == ["layering"]
        assert "layer map" in report.findings[0].message

    def test_tn_downward_import(self, tmp_path):
        src = "from repro.search.astar import astar_schedule\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_cli_imports_anything(self, tmp_path):
        src = "from repro.service.server import SolverServer\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/cli.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_same_package(self, tmp_path):
        src = "from repro.search.costs import make_cost_function\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/search/x.py": src}, self.RULE
        )
        assert hits == []


CONFORMING_ENGINE = (
    "from repro.search.result import SearchResult\n"
    "\n"
    "def my_schedule(graph, system, *, budget=None, incumbent=None,\n"
    "                probe=None):\n"
    "    return SearchResult(schedule=None, optimal=True, bound=1.0,\n"
    "                        stats=None, algorithm='my',\n"
    "                        lower_bound=0.0, interrupted=None)\n"
)

FRAME_ENGINE = (
    "from repro.search.frame import SearchFrame\n"
    "\n"
    "def my_schedule(graph, system, *, budget=None, incumbent=None,\n"
    "                probe=None):\n"
    "    frame = SearchFrame(graph, system, budget=budget)\n"
    "    return frame.finish(0.0, None)\n"
)


class TestEngineContract:
    RULE = ["engine-contract"]

    def test_tp_missing_kwonly_params(self, tmp_path):
        files = {
            "src/repro/search/myeng.py": (
                "from repro.search.result import SearchResult\n"
                "def my_schedule(graph, system, *, budget=None):\n"
                "    return SearchResult(lower_bound=0.0, interrupted=None)\n"
            ),
            "src/repro/search/__init__.py": (
                "from repro.search.myeng import my_schedule\n"
                "_ENGINE_LOADERS = {'my': lambda: my_schedule}\n"
            ),
        }
        hits, report = rules_hit(tmp_path, files, self.RULE)
        assert hits == ["engine-contract"]
        assert "incumbent, probe" in report.findings[0].message

    def test_tp_missing_result_fields(self, tmp_path):
        files = {
            "src/repro/search/myeng.py": (
                "from repro.search.result import SearchResult\n"
                "def my_schedule(graph, system, *, budget=None,\n"
                "                incumbent=None, probe=None):\n"
                "    return SearchResult(schedule=None, optimal=True)\n"
            ),
            "src/repro/search/__init__.py": (
                "from repro.search.myeng import my_schedule\n"
                "_ENGINE_LOADERS = {'my': lambda: my_schedule}\n"
            ),
        }
        hits, report = rules_hit(tmp_path, files, self.RULE)
        assert hits == ["engine-contract"]
        assert "lower_bound" in report.findings[0].message

    def test_tp_register_engine_call_checked(self, tmp_path):
        files = {
            "src/repro/parallel/myeng.py": (
                "from repro.search import register_engine\n"
                "def par_schedule(graph, system, *, budget=None):\n"
                "    pass\n"
                "register_engine('par', lambda: par_schedule)\n"
            ),
        }
        hits, report = rules_hit(tmp_path, files, self.RULE)
        assert "engine-contract" in hits
        assert any("incumbent" in f.message for f in report.findings)

    def test_tn_conforming_engine(self, tmp_path):
        files = {
            "src/repro/search/myeng.py": CONFORMING_ENGINE,
            "src/repro/search/__init__.py": (
                "from repro.search.myeng import my_schedule\n"
                "_ENGINE_LOADERS = {'my': lambda: my_schedule}\n"
            ),
        }
        hits, _ = rules_hit(tmp_path, files, self.RULE)
        assert hits == []

    def test_tn_engine_exiting_through_the_frame(self, tmp_path):
        files = {
            "src/repro/search/frame.py": (
                "from repro.search.result import SearchResult\n"
                "class SearchFrame:\n"
                "    def finish(self, lower, interrupted):\n"
                "        return SearchResult(lower_bound=lower,\n"
                "                            interrupted=interrupted)\n"
            ),
            "src/repro/search/myeng.py": FRAME_ENGINE,
            "src/repro/search/__init__.py": (
                "from repro.search.myeng import my_schedule\n"
                "_ENGINE_LOADERS = {'my': lambda: my_schedule}\n"
            ),
        }
        hits, _ = rules_hit(tmp_path, files, self.RULE)
        assert hits == []

    def test_tp_frame_without_contract_fields(self, tmp_path):
        files = {
            "src/repro/search/frame.py": (
                "from repro.search.result import SearchResult\n"
                "class SearchFrame:\n"
                "    def finish(self):\n"
                "        return SearchResult(schedule=None)\n"
            ),
            "src/repro/search/myeng.py": FRAME_ENGINE,
            "src/repro/search/__init__.py": (
                "from repro.search.myeng import my_schedule\n"
                "_ENGINE_LOADERS = {'my': lambda: my_schedule}\n"
            ),
        }
        hits, report = rules_hit(tmp_path, files, self.RULE)
        assert hits == ["engine-contract"]
        assert "lower_bound" in report.findings[0].message

    def test_tn_unresolvable_module_skipped(self, tmp_path):
        # Loader resolves to a module outside the lint set: no verdict.
        files = {
            "src/repro/search/__init__.py": (
                "from repro.elsewhere.myeng import my_schedule\n"
                "_ENGINE_LOADERS = {'my': lambda: my_schedule}\n"
            ),
        }
        hits, _ = rules_hit(tmp_path, files, self.RULE)
        assert hits == []


class TestExcepts:
    def test_tp_bare_except(self, tmp_path):
        src = "try:\n    pass\nexcept:\n    pass\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, ["bare-except"]
        )
        assert hits == ["bare-except"]

    def test_tn_typed_except(self, tmp_path):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, ["bare-except"]
        )
        assert hits == []

    def test_tp_swallowed_broad_exception(self, tmp_path):
        src = "try:\n    pass\nexcept Exception:\n    pass\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, ["swallowed-error"]
        )
        assert hits == ["swallowed-error"]

    def test_tp_swallowed_continue(self, tmp_path):
        src = (
            "for i in range(3):\n"
            "    try:\n        pass\n"
            "    except OSError:\n        continue\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, ["swallowed-error"]
        )
        assert hits == ["swallowed-error"]

    def test_tn_handler_that_records(self, tmp_path):
        src = (
            "import logging\n"
            "try:\n    pass\n"
            "except Exception as exc:\n"
            "    logging.exception('boom: %s', exc)\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, ["swallowed-error"]
        )
        assert hits == []

    def test_tn_narrow_pass_is_idiomatic(self, tmp_path):
        src = "try:\n    pass\nexcept KeyError:\n    pass\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, ["swallowed-error"]
        )
        assert hits == []


class TestMutableDefault:
    RULE = ["mutable-default"]

    def test_tp_list_default(self, tmp_path):
        src = "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n"
        hits, report = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == ["mutable-default"]
        assert "acc" in report.findings[0].message

    def test_tp_kwonly_dict_ctor_default(self, tmp_path):
        src = "def f(*, table=dict()):\n    return table\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == ["mutable-default"]

    def test_tn_none_sentinel_and_immutables(self, tmp_path):
        src = (
            "def f(x, acc=None, names=(), label=''):\n"
            "    acc = [] if acc is None else acc\n"
            "    return acc\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == []


class TestUnusedImport:
    RULE = ["unused-import"]

    def test_tp_unused(self, tmp_path):
        src = "import os\n\nx = 1\n"
        hits, report = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == ["unused-import"]
        assert report.findings[0].severity == "warning"

    def test_tn_used(self, tmp_path):
        src = "import os\n\nx = os.getcwd()\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_init_py_reexports(self, tmp_path):
        src = "from repro.util.timing import Budget\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/__init__.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_name_in_all_string(self, tmp_path):
        src = (
            "from repro.util.timing import Budget\n"
            "__all__ = ['Budget']\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_dotted_import_used_via_root(self, tmp_path):
        src = "import os.path\n\nx = os.path.sep\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == []


WORKER_MUTATION = (
    "RESULTS = []\n"
    "\n"
    "def _worker(q):\n"
    "    RESULTS.append(q)\n"
)


class TestWorkerSharedState:
    RULE = ["worker-shared-state"]

    def test_tp_mutator_call_on_module_global(self, tmp_path):
        hits, report = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": WORKER_MUTATION}, self.RULE
        )
        assert hits == ["worker-shared-state"]
        assert "RESULTS" in report.findings[0].message

    def test_tp_global_rebind(self, tmp_path):
        src = (
            "COUNT = 0\n"
            "def _worker(q):\n"
            "    global COUNT\n"
            "    COUNT = COUNT + 1\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/service/x.py": src}, self.RULE
        )
        assert hits == ["worker-shared-state"]

    def test_tp_subscript_store(self, tmp_path):
        src = (
            "TABLE = {}\n"
            "def run(pool, items):\n"
            "    pool.map(_solve_one, items)\n"
            "def _solve_one(item):\n"
            "    TABLE[item] = 1\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == ["worker-shared-state"]

    def test_tp_reachable_through_helper(self, tmp_path):
        src = (
            "CACHE = {}\n"
            "def _worker(q):\n"
            "    _store(q)\n"
            "def _store(q):\n"
            "    CACHE[q] = True\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == ["worker-shared-state"]

    def test_tp_target_kwarg_entry_point(self, tmp_path):
        src = (
            "import threading\n"
            "STATE = []\n"
            "def pump(q):\n"
            "    STATE.append(q)\n"
            "def start():\n"
            "    threading.Thread(target=pump).start()\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == ["worker-shared-state"]

    def test_tn_local_shadow(self, tmp_path):
        src = (
            "RESULTS = []\n"
            "def _worker(q):\n"
            "    RESULTS = []\n"
            "    RESULTS.append(q)\n"
            "    return RESULTS\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_unreachable_function(self, tmp_path):
        src = (
            "RESULTS = []\n"
            "def parent_only(q):\n"
            "    RESULTS.append(q)\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_outside_concurrency_packages(self, tmp_path):
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": WORKER_MUTATION}, self.RULE
        )
        assert hits == []


class TestBlockingRecv:
    RULE = ["blocking-recv"]

    def test_tp_get_without_timeout(self, tmp_path):
        src = "def _worker(q):\n    item = q.get()\n    return item\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == ["blocking-recv"]

    def test_tp_bare_recv(self, tmp_path):
        src = "def pump(conn):\n    return conn.recv()\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/service/x.py": src}, self.RULE
        )
        assert hits == ["blocking-recv"]

    def test_tn_get_with_timeout(self, tmp_path):
        src = "def _worker(q):\n    return q.get(timeout=0.5)\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_get_nowait_and_dict_get(self, tmp_path):
        src = (
            "def peek(q, d):\n"
            "    a = q.get_nowait()\n"
            "    b = d.get('key')\n"
            "    return a, b\n"
        )
        hits, _ = rules_hit(
            tmp_path, {"src/repro/parallel/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_awaited_asyncio_get(self, tmp_path):
        src = "async def pump(q):\n    return await q.get()\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/service/x.py": src}, self.RULE
        )
        assert hits == []

    def test_tn_outside_concurrency_packages(self, tmp_path):
        src = "def f(q):\n    return q.get()\n"
        hits, _ = rules_hit(
            tmp_path, {"src/repro/util/x.py": src}, self.RULE
        )
        assert hits == []
