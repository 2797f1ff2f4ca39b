"""Start-up imports: a command loads only the modules it runs.

Package ``__init__`` files re-export their names on first use
(:mod:`repro.util.lazy`).  Each check runs in a fresh interpreter,
because this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(code: str) -> set:
    """The modules loaded once ``code`` ran in a fresh interpreter."""
    report = "import json, sys\nprint(json.dumps(list(sys.modules)))"
    return set(run_fresh(f"{code}\n{report}"))


#: Every package's ``__all__`` checked three ways: ``getattr`` resolves
#: each name, ``dir()`` lists it, and ``from pkg import *`` binds it.
#: ``PRELOAD`` runs first.
CHECK_EXPORTS = """
import importlib, json, pkgutil, types
import repro

PRELOAD
problems = []
packages = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
for name in packages:
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", ())
    star = {}
    exec(f"from {name} import *", star)
    for attr in exported:
        value = getattr(package, attr, None)
        if value is None:
            problems.append(f"{name}.{attr} does not resolve")
        elif isinstance(value, types.ModuleType):
            problems.append(f"{name}.{attr} is a module")
        if attr not in dir(package):
            problems.append(f"{name}.{attr} not in dir()")
        if star.get(attr, star) is not value:
            problems.append(f"{name}.{attr} not bound by import *")
print(json.dumps([len(packages), problems]))
"""


#: ``repro --help``, its output swallowed.
HELP = """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(['--help'])
    except SystemExit:
        pass
"""


class TestStartupImports:
    def test_help_loads_neither_numpy_nor_the_search(self):
        loaded = modules_after(HELP)
        assert "repro.cli" in loaded
        assert "numpy" not in loaded
        assert "repro.core.search" not in loaded

    def test_help_loads_no_store_backend(self):
        loaded = modules_after(HELP)
        assert "repro.store.cli" in loaded
        assert "repro.store.backend" not in loaded
        assert "sqlite3" not in loaded

    def test_a_warm_compile_loads_no_symbolic_prover(self, tmp_path):
        # The uov-search key names the prover's version; a warm compile
        # reads every stage from the store and runs no prover.
        from repro.codes import get_spec
        from repro.pipeline import ArtifactCache, compile_spec

        options = dict(lint=True, codegen=True, engine="vectorized")
        cold = compile_spec(
            get_spec("stencil5"), cache=ArtifactCache(tmp_path), **options
        )
        assert not any(r.cached for r in cold.records)
        loaded = modules_after(
            "from repro.codes import get_spec\n"
            "from repro.pipeline import ArtifactCache, compile_spec\n"
            "result = compile_spec(get_spec('stencil5'), "
            f"cache=ArtifactCache({str(tmp_path)!r}), **{options!r})\n"
            "assert all(r.cached for r in result.records)"
        )
        assert "repro.pipeline.stages" in loaded
        assert "repro.analysis.symcert" not in loaded
        assert "repro.util.fm" not in loaded

    def test_the_build_module_loads_no_code_generator(self):
        loaded = modules_after("import repro.codegen.build")
        assert "repro.codegen.build" in loaded
        assert "repro.codegen.c_gen" not in loaded

    def test_the_store_loads_no_uov_core(self):
        loaded = modules_after("import repro.store.core")
        assert "repro.store.core" in loaded
        assert "repro.core" not in loaded


class TestReExports:
    def test_every_export_resolves_on_first_use(self):
        count, problems = run_fresh(CHECK_EXPORTS.replace("PRELOAD", ""))
        assert count >= 18
        assert problems == []

    def test_exports_outlive_their_modules_loading_first(self):
        # ``repro.analysis.certify`` is both a module and the exported
        # function; importing the module first must not hide the export.
        preload = (
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)"
        )
        count, problems = run_fresh(CHECK_EXPORTS.replace("PRELOAD", preload))
        assert count >= 18
        assert problems == []
