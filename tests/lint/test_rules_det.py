"""Per-rule fixtures for the DET determinism rules.

Each rule gets at least one *bad* snippet that must fire and one *good*
snippet (the sanctioned rewrite) that must stay clean — the contract the
``repro lint src/`` self-check relies on.
"""

from textwrap import dedent

import pytest

from repro.lint import lint_source


def codes(source: str) -> list[str]:
    return [f.code for f in lint_source(dedent(source))]


class TestDet001SetIteration:
    def test_for_over_set_literal(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["DET001"]

    def test_for_over_set_call(self):
        assert codes("for x in set(items):\n    pass\n") == ["DET001"]

    def test_for_over_frozenset(self):
        assert codes("for x in frozenset(items):\n    pass\n") == ["DET001"]

    def test_for_over_tracked_set_variable(self):
        src = """
        seen = set()
        for x in seen:
            pass
        """
        assert codes(src) == ["DET001"]

    def test_for_over_set_union(self):
        src = """
        a = set()
        b = set()
        for x in a | b:
            pass
        """
        assert codes(src) == ["DET001"]

    def test_for_over_dict_keys_union(self):
        assert codes("for k in d1.keys() | d2.keys():\n    pass\n") == [
            "DET001"
        ]

    def test_comprehension_over_set(self):
        assert codes("out = [x for x in {1, 2}]\n") == ["DET001"]

    def test_list_materializing_set(self):
        assert codes("out = list({1, 2, 3})\n") == ["DET001"]

    def test_set_method_results_are_setish(self):
        src = """
        a = set()
        for x in a.intersection(b):
            pass
        """
        assert codes(src) == ["DET001"]

    def test_sorted_set_is_clean(self):
        assert codes("for x in sorted({1, 2, 3}):\n    pass\n") == []

    def test_sorted_union_is_clean(self):
        assert codes("for k in sorted(d1.keys() | d2.keys()):\n    pass\n") == []

    def test_plain_list_iteration_is_clean(self):
        assert codes("for x in [1, 2, 3]:\n    pass\n") == []

    def test_dict_iteration_is_clean(self):
        # Python dicts preserve insertion order — not a hazard by itself.
        assert codes("for k in d:\n    pass\n") == []

    def test_set_comprehension_stays_unordered(self):
        # set -> set keeps no order; flagging it would force useless sorts.
        assert codes("out = {x for x in {1, 2}}\n") == []

    def test_membership_test_is_clean(self):
        assert codes("flag = 3 in {1, 2, 3}\n") == []

    def test_len_of_set_is_clean(self):
        assert codes("n = len({1, 2, 3})\n") == []

    def test_reassignment_to_list_unmarks(self):
        src = """
        items = set()
        items = sorted(items)
        for x in items:
            pass
        """
        assert codes(src) == []


class TestDet002UnsortedListing:
    def test_listdir(self):
        src = """
        import os
        names = os.listdir(".")
        """
        assert codes(src) == ["DET002"]

    def test_glob(self):
        src = """
        import glob
        files = glob.glob("*.py")
        """
        assert codes(src) == ["DET002"]

    def test_pathlib_iterdir(self):
        assert codes("files = path.iterdir()\n") == ["DET002"]

    def test_pathlib_rglob(self):
        assert codes('files = root.rglob("*.py")\n') == ["DET002"]

    def test_sorted_listdir_is_clean(self):
        src = """
        import os
        names = sorted(os.listdir("."))
        """
        assert codes(src) == []

    def test_sorted_rglob_is_clean(self):
        assert codes('files = sorted(root.rglob("*.py"))\n') == []

    def test_aliased_import(self):
        src = """
        import os.path
        import os as o
        names = o.listdir(".")
        """
        assert codes(src) == ["DET002"]


class TestDet003GlobalRng:
    def test_random_module_function(self):
        src = """
        import random
        x = random.random()
        """
        assert codes(src) == ["DET003"]

    def test_random_shuffle(self):
        src = """
        import random
        random.shuffle(items)
        """
        assert codes(src) == ["DET003"]

    def test_numpy_legacy_rand(self):
        src = """
        import numpy as np
        x = np.random.rand(3)
        """
        assert codes(src) == ["DET003"]

    def test_numpy_global_seed(self):
        src = """
        import numpy as np
        np.random.seed(0)
        """
        assert codes(src) == ["DET003"]

    def test_seeded_instance_is_clean(self):
        src = """
        import random
        rng = random.Random(42)
        x = rng.random()
        """
        assert codes(src) == []

    def test_default_rng_is_clean(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(7)
        x = rng.normal()
        """
        assert codes(src) == []

    def test_seed_sequence_is_clean(self):
        src = """
        import numpy as np
        ss = np.random.SeedSequence(1)
        """
        assert codes(src) == []


class TestDet004WallClock:
    def test_time_time(self):
        src = """
        import time
        t = time.time()
        """
        assert codes(src) == ["DET004"]

    def test_time_ns(self):
        src = """
        import time
        t = time.time_ns()
        """
        assert codes(src) == ["DET004"]

    def test_datetime_now(self):
        src = """
        import datetime
        t = datetime.datetime.now()
        """
        assert codes(src) == ["DET004"]

    def test_monotonic_is_clean(self):
        src = """
        import time
        t0 = time.monotonic()
        t1 = time.perf_counter()
        """
        assert codes(src) == []


class TestDet005UnorderedReduction:
    def test_sum_over_set_variable(self):
        src = """
        vals = set()
        total = sum(vals)
        """
        assert codes(src) == ["DET005"]

    def test_sum_over_genexp_over_set(self):
        src = """
        vals = set()
        total = sum(v * 2 for v in vals)
        """
        assert codes(src) == ["DET005"]

    def test_sum_over_sorted_is_clean(self):
        src = """
        vals = set()
        total = sum(sorted(vals))
        """
        assert codes(src) == []

    def test_sum_over_list_is_clean(self):
        assert codes("total = sum([1.0, 2.0])\n") == []


def test_findings_carry_location_and_hint():
    (finding,) = lint_source("for x in {1, 2}:\n    pass\n", path="m.py")
    assert finding.path == "m.py"
    assert finding.line == 1
    assert finding.column >= 1
    assert finding.rule == "set-iteration"
    assert "sorted" in finding.hint or "sorted" in finding.message


@pytest.mark.parametrize(
    "source",
    [
        "for x in {1}:\n    pass\n",
        "import os\nos.listdir('.')\n",
        "import random\nrandom.random()\n",
        "import time\ntime.time()\n",
        "v = set()\nsum(v)\n",
    ],
)
def test_det_rules_default_to_error(source):
    findings = lint_source(source)
    assert findings and all(f.severity.name == "ERROR" for f in findings)


class TestDet006KernelGlobalMutation:
    def test_global_rebind_in_kernel(self):
        src = """
        from repro.parallel import chunk_kernel

        _TOTAL = 0

        @chunk_kernel("demo.total")
        def kernel(views, lo, hi):
            global _TOTAL
            _TOTAL += hi - lo
        """
        assert "DET006" in codes(src)

    def test_subscript_store_into_module_dict(self):
        src = """
        from repro.parallel import chunk_kernel

        _CACHE = {}

        @chunk_kernel("demo.cache")
        def kernel(views, lo, hi):
            _CACHE[lo] = hi
        """
        assert "DET006" in codes(src)

    def test_mutating_method_on_module_list(self):
        src = """
        from repro.parallel import chunk_kernel

        _SEEN = []

        @chunk_kernel("demo.seen")
        def kernel(views, lo, hi):
            _SEEN.append(lo)
        """
        assert "DET006" in codes(src)

    def test_attribute_qualified_decorator_is_recognized(self):
        src = """
        import repro.parallel as par

        _STATE = {}

        @par.chunk_kernel("demo.attr")
        def kernel(views, lo, hi):
            _STATE[lo] = hi
        """
        assert "DET006" in codes(src)

    def test_view_writes_and_locals_are_clean(self):
        src = """
        from repro.parallel import chunk_kernel

        _CACHE = {}

        @chunk_kernel("demo.clean")
        def kernel(views, lo, hi):
            scratch = []
            scratch.append(lo)
            views["out"][lo:hi] = 1.0
        """
        assert "DET006" not in codes(src)

    def test_non_kernel_function_is_exempt(self):
        src = """
        _CACHE = {}

        def helper(lo, hi):
            _CACHE[lo] = hi
        """
        assert "DET006" not in codes(src)

    def test_pragma_suppresses_with_justification(self):
        from repro.lint import lint_source
        from textwrap import dedent

        src = """
        from repro.parallel import chunk_kernel

        _CACHE = {}

        @chunk_kernel("demo.suppressed")
        def kernel(views, lo, hi):
            _CACHE[lo] = hi  # repro: lint-disable=DET006 -- single-threaded test fixture
        """
        findings = lint_source(dedent(src))
        assert "DET006" not in [f.code for f in findings]


class TestDet007BlasReduction:
    @pytest.mark.parametrize(
        "call",
        ["np.dot(u, v)", "np.vdot(u, v)", "np.inner(u, v)", "np.linalg.norm(r)"],
    )
    def test_numpy_blas_reductions(self, call):
        assert codes(f"import numpy as np\nx = {call}\n") == ["DET007"]

    def test_from_import_of_norm(self):
        src = """
        from numpy.linalg import norm
        x = norm(r)
        """
        assert codes(src) == ["DET007"]

    @pytest.mark.parametrize(
        "solver",
        ["cg", "bicg", "bicgstab", "cgs", "gmres", "lgmres", "minres",
         "qmr", "tfqmr", "gcrotmk"],
    )
    def test_scipy_krylov_solvers(self, solver):
        src = f"""
        import scipy.sparse.linalg as spla
        x, info = spla.{solver}(A, b)
        """
        assert codes(src) == ["DET007"]

    def test_fully_qualified_scipy_cg(self):
        src = """
        import scipy.sparse.linalg
        x, info = scipy.sparse.linalg.cg(A, b)
        """
        assert codes(src) == ["DET007"]

    def test_fixed_order_reductions_are_clean(self):
        src = """
        import numpy as np
        import scipy.sparse.linalg as spla
        rho = float(np.add.reduce(u * v))
        total = np.sum(r * r)
        q = A @ p
        lu = spla.splu(A)
        x = spla.spsolve(A, b)
        """
        assert codes(src) == []

    def test_unrelated_dot_names_are_clean(self):
        src = """
        import mylib
        x = mylib.dot(u, v)
        y = u.dot(v)
        """
        assert codes(src) == []

    def test_pragma_suppresses_with_justification(self):
        src = (
            "import numpy as np\n"
            "x = np.dot(u, v)  # repro: lint-disable=DET007 "
            "-- 3-vector, below any BLAS threading threshold\n"
        )
        assert codes(src) == []

    def test_unjustified_pragma_does_not_suppress(self):
        src = "import numpy as np\nx = np.dot(u, v)  # repro: lint-disable=DET007\n"
        assert sorted(codes(src)) == ["DET007", "PRG001"]
