"""Documentation consistency guards.

The docs, the verify skill and the source docstrings name bench files,
modules and commands; these tests fail if they rot relative to the tree.
"""

import importlib
import json
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).parent.parent

#: Package roots that resolve their public names on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.conformance",
    "repro.core",
    "repro.machines",
    "repro.observatory",
    "repro.sweep",
)


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestTreePromises:
    def test_top_level_files_exist(self):
        for name in (
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "pyproject.toml",
            "docs/MODEL.md",
            "docs/SIMULATOR.md",
        ):
            assert (ROOT / name).is_file(), name

    def test_examples_promised_by_readme_exist(self):
        readme = read("README.md")
        for script in re.findall(r"`([a-z_]+\.py)`", readme):
            assert (ROOT / "examples" / script).is_file(), script

    def test_bench_targets_in_design_exist(self):
        design = read("DESIGN.md")
        for target in set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design)):
            assert (ROOT / "benchmarks" / target).is_file(), target

    def test_bench_modules_in_experiments_exist(self):
        exps = read("EXPERIMENTS.md")
        for target in set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", exps)):
            assert (ROOT / "benchmarks" / target).is_file(), target

    def test_bench_files_named_anywhere_exist(self):
        # perfbench/ and CHANGES.md are left out: they may name retired
        # benches as history.
        texts = [
            ROOT / "README.md",
            ROOT / "DESIGN.md",
            ROOT / "EXPERIMENTS.md",
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
            *(ROOT / "docs").glob("*.md"),
            *(ROOT / "src").rglob("*.py"),
        ]
        stale = set()
        for path in texts:
            text = path.read_text()
            stale |= {
                f"{path.relative_to(ROOT)}: {name}"
                for name in re.findall(r"\bbench_[a-z0-9_]+\.py", text)
                if not (ROOT / "benchmarks" / name).is_file()
            }
            stale |= {
                f"{path.relative_to(ROOT)}: {name}"
                for name in re.findall(r"\bBENCH_[A-Za-z0-9_]+\.json", text)
                if not (ROOT / name).is_file()
            }
        assert not stale, sorted(stale)

    def test_every_bench_module_is_indexed_in_experiments_or_design(self):
        docs = read("EXPERIMENTS.md") + read("DESIGN.md")
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in docs, f"{path.name} not documented"

    def test_every_source_module_has_a_docstring(self):
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text().lstrip()
            assert text.startswith('"""') or text.startswith("'''"), (
                f"{path} lacks a module docstring"
            )

    def test_cli_commands_promised_by_docs_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        registered = set(sub.choices)
        readme = read("README.md")
        for cmd in re.findall(r"python -m repro (\w+)", readme):
            assert cmd in registered, cmd


class TestPublicApiImports:
    def test_top_level_all_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_importable(self):
        import repro.algorithms
        import repro.analysis
        import repro.conformance
        import repro.core
        import repro.machines
        import repro.observatory
        import repro.sequential
        import repro.simmpi
        import repro.sweep

        for mod in (
            repro.core,
            repro.simmpi,
            repro.algorithms,
            repro.machines,
            repro.analysis,
            repro.sequential,
            repro.observatory,
            repro.sweep,
            repro.conformance,
        ):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_lazy_package_dir_covers_all(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_lazy_package_unknown_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            getattr(pkg, "no_such_public_name")

    def test_lazy_names_are_their_defining_objects(self, src_env):
        """With every submodule imported first (so a submodule that
        shares a public name, like ``repro.core.energy``, is bound on its
        package), each ``__all__`` name of a lazy package is still the
        object its defining module holds. Run in a fresh interpreter so
        no earlier test decides the import order."""
        script = textwrap.dedent(
            f"""
            import importlib, json, pkgutil, types
            import repro

            for info in pkgutil.walk_packages(repro.__path__, "repro."):
                if not info.name.endswith("__main__"):
                    importlib.import_module(info.name)
            wrong = []
            for package in {LAZY_PACKAGES!r}:
                pkg = importlib.import_module(package)
                home = {{
                    name: module
                    for module, names in pkg._EXPORTS.items()
                    for name in names
                }}
                for name in pkg.__all__:
                    owner = importlib.import_module(home.get(name, package))
                    value = getattr(pkg, name)
                    if isinstance(value, types.ModuleType) or (
                        value is not getattr(owner, name)
                    ):
                        wrong.append(package + "." + name)
            print(json.dumps(wrong))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=src_env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout) == []
